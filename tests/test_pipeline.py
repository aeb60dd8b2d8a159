"""Toy model generation, forward pass, and end-to-end pruning."""

import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from obslim import pipeline
from obslim.calib import HessianAccumulator
from obslim.errors import NotSpdError
from obslim.linalg import SpdMatrix
from obslim.obs_core import least_squares_oracle
from obslim.pipeline import (
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

from conftest import dense_causal_attention, reinvert_prune_heads

TOY = ToyModelSpec(n_layers=3, d_model=16, n_head=4, d_ff=24,
                   n_calib_batches=2, tokens_per_batch=24)
CONFIG = PruneConfig(group_start=8, group_min=2)


def custom_schedule(ratios):
    return PruneSchedule(ratios=tuple(ratios), variant="custom",
                         r_first=ratios[0], r_last=ratios[-1])


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

    @pytest.mark.parametrize("tokens", [1, 2, 63, 64, 65, 128, 129, 300])
    def test_attention_matches_dense_reference(self, tokens):
        # tile edges on both sides of 64 and 128, and a partial last tile
        tensors, manifest, calib = gen_toy(ToyModelSpec(
            n_layers=1, d_model=16, n_head=4, d_ff=8,
            n_calib_batches=1, tokens_per_batch=tokens, seed=tokens))
        lw = LayerWeights.from_tensors(manifest.layers[0], tensors)
        lw.wo[:, 4:8] = 0.0  # head 1 is dead
        out, feats = pipeline._attention(lw, calib[0])
        want_out, want_feats = dense_causal_attention(lw, calib[0])
        assert not feats[4:8].any()
        assert np.linalg.norm(feats - want_feats) <= 1e-12 * np.linalg.norm(want_feats)
        assert np.linalg.norm(out - want_out) <= 1e-12 * np.linalg.norm(want_out)


class TestMaskedVsSliced:
    def test_layer_level_exact_equality(self):
        self.check_layer_level_exact_equality(tokens=19)

    def test_layer_level_exact_equality_multi_tile(self):
        # 150 tokens: three attention tiles, the last one partial
        self.check_layer_level_exact_equality(tokens=150)

    @staticmethod
    def check_layer_level_exact_equality(tokens):
        # zero-masking pruned structures and physically slicing them produce
        # numerically identical layer outputs
        rng = np.random.default_rng(1)
        tensors, manifest, calib = gen_toy(ToyModelSpec(
            n_layers=1, d_model=24, n_head=4, d_ff=17,
            n_calib_batches=1, tokens_per_batch=tokens, seed=3))
        entry = manifest.layers[0]
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

    def test_model_level_after_real_prune(self):
        tensors, manifest, calib = gen_toy(TOY)
        sched = custom_schedule([0.5, 0.25, 0.5])
        pruned, pmanifest, report = prune_model(tensors, manifest, calib, sched, CONFIG)
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
    def test_zero_ratios_bit_identical(self):
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "uniform", global_target=0.0)
        pruned, pmanifest, report = prune_model(tensors, manifest, calib, sched, CONFIG)
        assert all(np.array_equal(pruned[k], tensors[k]) for k in tensors)
        assert pmanifest == manifest
        assert all(r.output_sq_error == 0.0 for r in report.layers)
        assert all(r.sum_step_error == 0.0 for r in report.layers)

    def test_single_layer_head_only_output_error_oracle(self):
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
        pruned, _, report = prune_model(tensors, manifest, calib, sched, CONFIG)
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

    def test_determinism(self):
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "log_increase", r0=0.2, global_target=0.4)
        out1 = prune_model(tensors, manifest, calib, sched, CONFIG)
        out2 = prune_model(tensors, manifest, calib, sched, CONFIG)
        assert all(np.array_equal(out1[0][k], out2[0][k]) for k in out1[0])
        assert out1[1] == out2[1]
        assert out1[2].to_json() == out2[2].to_json()

    def test_every_layer_matches_least_squares_oracle(self):
        self.check_every_layer_matches_least_squares_oracle(TOY)

    def test_every_layer_matches_least_squares_oracle_multi_tile(self):
        # 150 tokens: three attention tiles, the last one partial
        self.check_every_layer_matches_least_squares_oracle(replace(TOY, tokens_per_batch=150))

    @staticmethod
    def check_every_layer_matches_least_squares_oracle(spec):
        # Hessians rebuilt from public forward_layer(collect=True) by the
        # documented rule: the stream through the pruned prefix, with the
        # FFN features taken after the layer's own head pruning
        tensors, manifest, calib = gen_toy(spec)
        pruned, pmanifest, report = prune_model(
            tensors, manifest, calib, custom_schedule([0.5, 0.25, 0.5]), CONFIG)

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

            n = idx + 1
            head = ModelManifest(n_layers=n, layers=manifest.layers[:n])
            phead = ModelManifest(n_layers=n, layers=pmanifest.layers[:n])
            err = sum(((forward_model(pruned, phead, x) - forward_model(tensors, head, x)) ** 2).sum()
                      for x in calib)
            assert abs(row.output_sq_error - err) <= 1e-9 * err
            cur = [forward_layer(new, x) for x in cur]

    def test_attention_and_ffn_passes_per_layer(self, monkeypatch):
        # Per-layer counts come from pruning the 1-, 2- and 3-layer prefixes.
        # Layer 0 removes nothing, so the pruned and the original stream are
        # still the same arrays and each sublayer runs once per batch. Layer 1
        # shares its attention pass, then its head pruning splits the streams,
        # so its FFN and all of layer 2 run once per stream.
        calls = Counter()
        for name in ("_attention", "_ffn"):
            def counted(*args, _fn=getattr(pipeline, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(pipeline, name, counted)
        tensors, manifest, calib = gen_toy(TOY)
        ratios = [0.0, 0.5, 0.5]
        expect = [(1, 1), (1, 2), (2, 2)]
        before = Counter()
        for n in range(1, 4):
            calls.clear()
            prune_model(tensors, ModelManifest(n_layers=n, layers=manifest.layers[:n]),
                        calib, custom_schedule(ratios[:n]), CONFIG)
            per_batch = tuple((calls[k] - before[k]) / len(calib) for k in ("_attention", "_ffn"))
            assert per_batch == expect[n - 1], (n - 1, per_batch)
            before = Counter(calls)

    def test_refresh_modes_agree_end_to_end(self, monkeypatch):
        # the whole run matches one whose head pruning re-inverts every round
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "uniform", global_target=0.5)
        p_t, _, _ = prune_model(tensors, manifest, calib, sched, CONFIG)
        monkeypatch.setattr(pipeline, "prune_heads", reinvert_prune_heads)
        p_r, _, _ = prune_model(tensors, manifest, calib, sched, CONFIG)
        for k in p_t:
            assert np.abs(p_t[k] - p_r[k]).max() < 1e-6

    def test_failure_names_layer(self):
        # 8 tokens for 16 attention features: rank-deficient, but no feature
        # is dead, so undamped Cholesky fails
        tensors, manifest, calib = gen_toy(TOY)
        calib = [calib[0][:, :8]]
        sched = build_schedule(3, "uniform", global_target=0.5)
        cfg = PruneConfig(damping=0.0, group_start=8, group_min=2)
        with pytest.raises(NotSpdError, match="layer 0"):
            prune_model(tensors, manifest, calib, sched, cfg)

    def test_dead_channel_matches_oracle_on_live_subspace(self):
        # Channel 5 of layer 1 never fires (its w_up row is zero), so at
        # damping 0 its Hessian row and column are zero. It is removed at no
        # cost, and the kept channels get the least-squares weights of the
        # live channels alone.
        spec = ToyModelSpec(n_layers=2, seed=7)
        tensors, manifest, calib = gen_toy(spec)
        tensors["layers.1.ffn.w_up"][5] = 0.0
        cfg = PruneConfig(damping=0.0, group_start=8, group_min=2)
        pruned, pmanifest, report = prune_model(
            tensors, manifest, calib, custom_schedule([0.0, 0.25]), cfg)
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

    def test_dead_feature_rule(self):
        rng = np.random.default_rng(0)
        feats = [rng.normal(size=(6, 20)) for _ in range(2)]
        w = rng.normal(size=(3, 6))
        w0 = w.copy()
        acc = HessianAccumulator(6)
        for f in feats:
            acc.accumulate(f)
        # no dead feature: the same bits as a plain damped sum, w untouched
        h = pipeline._hessian_over_batches(feats, 0.01, w)
        assert np.array_equal(h.a, acc.finalize(0.01).a)
        assert np.array_equal(w, w0)
        for f in feats:
            f[2] = 0.0
        h = pipeline._hessian_over_batches(feats, 0.01, w)
        diag = np.diag(sum(2.0 * f @ f.T for f in feats)).copy()
        diag[2] = 1.0
        assert h.a[2, 2] == 1.0 + 0.01 * diag.mean()
        assert not np.delete(h.a[2], 2).any()
        assert not w[:, 2].any()
        assert np.array_equal(np.delete(w, 2, axis=1), np.delete(w0, 2, axis=1))

    def test_schedule_length_mismatch(self):
        tensors, manifest, calib = gen_toy(TOY)
        with pytest.raises(ValueError, match="layers"):
            prune_model(tensors, manifest, calib, custom_schedule([0.5]), CONFIG)


class TestReports:
    def run_once(self):
        tensors, manifest, calib = gen_toy(TOY)
        sched = build_schedule(3, "log_increase", r0=0.2, global_target=0.4)
        return prune_model(tensors, manifest, calib, sched, CONFIG)

    def test_round_trip(self, tmp_path):
        _, _, report = self.run_once()
        path = tmp_path / "report.json"
        report.save(path)
        back = PruneReport.load(path)
        assert back.to_json() == report.to_json()
        assert "wall_clock_s" not in json.loads(report.to_json())  # timing is not persisted

    def test_csv_columns(self):
        _, _, report = self.run_once()
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == ("layer,ratio,heads_removed,channels_removed,"
                            "sum_step_error,output_sq_error")
        assert len(lines) == 1 + 3

    def test_verify_clean(self):
        _, pmanifest, report = self.run_once()
        assert verify_report(report) == []
        assert verify_report(report, pmanifest) == []

    def test_verify_flags_problems(self):
        _, pmanifest, report = self.run_once()
        report.layers[1].output_sq_error = -1.0
        problems = verify_report(report, pmanifest)
        assert any("output_sq_error" in p for p in problems)
        report2 = self.run_once()[2]
        report2.ratios[0] = 0.9  # no longer follows the variant formula
        assert any("variant" in p for p in verify_report(report2))
