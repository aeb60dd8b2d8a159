"""Head pruning: estimation formulas, head removal, compensation, outer loop."""

import numpy as np
import pytest

from obslim.errors import NotSpdError
from obslim.head_pruner import prune_heads
from obslim.linalg import SpdMatrix, invert_spd, remove_block
from obslim.obs_core import block_errors, least_squares_oracle, mask_residual

from conftest import (
    head_cols,
    head_instance,
    in_place_rounds,
    kept_heads,
    masked_instance,
    other_cols,
    rand_spd,
    reinvert_prune_heads,
    remove_compacted,
)


class TestHeadErrors:
    """``block_errors`` over blocks of ``d_head`` columns: the head scores."""

    def test_dhead_one_identity(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(5, 4))
        errs = block_errors(w, np.eye(4), 1)
        assert np.allclose(errs, (w * w).sum(axis=0))

    def test_zero_weights(self):
        errs = block_errors(np.zeros((3, 8)), rand_spd(np.random.default_rng(1), 8).a, 4)
        assert np.array_equal(errs, np.zeros(2))

    def test_block_diagonal_hand_evaluation(self):
        # two heads of width 2, block-diagonal inverse Hessian with known
        # blocks: per-element error is w^2 over the squared factor diagonal
        a = np.array([[4.0, 2.0], [2.0, 5.0]])   # chol diag: 2, 2
        b = np.array([[9.0, 3.0], [3.0, 5.0]])   # chol diag: 3, 2
        h_inv = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        w = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        errs = block_errors(w, h_inv, 2)
        head0 = (1 + 25) / 4.0 + (4 + 36) / 4.0
        head1 = (9 + 49) / 9.0 + (16 + 64) / 4.0
        assert np.allclose(errs, [head0, head1])

    def test_round1_dhead1_degenerates_to_column_errors(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(4, 6))
        h_inv = invert_spd(rand_spd(rng, 6))
        he = block_errors(w, h_inv, 1)
        ce = (w * w).sum(axis=0) / np.diag(h_inv)
        assert np.argmin(he) == np.argmin(ce)
        assert np.abs(he - ce).max() < 1e-12 * ce.max()

    def test_survivor_mask_scores_live_heads_only(self):
        # live heads score as on the compacted arrays, bit for bit, for any
        # number of rows and head width; a dead head's block, not positive
        # definite here, is never factored
        rng = np.random.default_rng(17)
        w = rng.normal(size=(5, 12))
        h_inv = invert_spd(rand_spd(rng, 12))
        alive = np.ones(12, dtype=bool)
        remove_block(w, h_inv, head_cols(3, 1), alive)
        h_inv[3:6, 3:6] = -np.eye(3)
        errs = block_errors(w, h_inv, 3, alive)
        compact = block_errors(w[:, alive], h_inv[np.ix_(alive, alive)], 3)
        assert np.array_equal(errs, compact)
        for width in (2, 3, 8):
            for _ in range(20):
                w, h_inv, alive = masked_instance(rng, width)
                compact = block_errors(w[:, alive], h_inv[np.ix_(alive, alive)], width)
                assert np.array_equal(block_errors(w, h_inv, width, alive), compact)


class TestReorder:
    """Removing one head's columns with ``remove_block``, wherever the head sits."""

    def test_target_zero_identity(self):
        # the leading head leaves the trailing block of the full factor
        rng = np.random.default_rng(3)
        w = rng.normal(size=(4, 6))
        h_inv = invert_spd(rand_spd(rng, 6))
        _, h_rest, _ = remove_compacted(w, h_inv, head_cols(2, 0))
        tail = np.linalg.cholesky(h_inv)[2:, 2:]
        assert np.abs(h_rest - tail @ tail.T).max() < 1e-10 * np.abs(h_inv).max()

    def test_two_heads_target_one(self):
        w = np.arange(12.0).reshape(2, 6)
        w_rest, h_rest, _ = remove_compacted(w, np.eye(6), head_cols(3, 1))
        assert np.array_equal(w_rest, w[:, :3])
        assert np.array_equal(h_rest, np.eye(3))

    def test_hinv_permutation_matches_reinversion_oracle(self):
        rng = np.random.default_rng(4)
        h = rand_spd(rng, 12)
        w = rng.normal(size=(5, 12))
        _, h_rest, _ = remove_compacted(w, invert_spd(h), head_cols(3, 2))
        kept = other_cols(4, 3, 2)
        direct = np.linalg.inv(h.a[np.ix_(kept, kept)])
        assert np.abs(h_rest - direct).max() < 1e-8


class TestPruneOneHead:
    def test_identity_hinv(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 6))
        w_rest, _, steps = remove_compacted(w, np.eye(6), head_cols(2, 1))
        assert np.array_equal(w_rest, w[:, [0, 1, 4, 5]])
        assert np.allclose(steps, (w[:, [2, 3]] ** 2).sum(axis=0), rtol=1e-15, atol=0)

    def test_dhead_one_matches_prune_column(self):
        # a one-column head is the classic single-column OBS update
        rng = np.random.default_rng(6)
        for _ in range(10):
            w = rng.normal(size=(4, 5))
            h_inv = invert_spd(rand_spd(rng, 5))
            target = int(rng.integers(5))
            w_rest, _, _ = remove_compacted(w, h_inv, head_cols(1, target))
            expect = w - np.outer(w[:, target] / h_inv[target, target], h_inv[target])
            kept = [c for c in range(5) if c != target]
            assert np.abs(w_rest - expect[:, kept]).max() < 1e-10 * max(1, np.abs(w).max())

    def test_least_squares_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            d_head = int(rng.integers(2, 5))
            n = 2 * d_head
            w = rng.normal(size=(4, n))
            h = rand_spd(rng, n)
            target = int(rng.integers(2))
            w_rest, _, _ = remove_compacted(w, invert_spd(h), head_cols(d_head, target))
            expect = least_squares_oracle(w, h, other_cols(2, d_head, target))
            assert np.abs(w_rest - expect).max() < 1e-8


class TestPruneHeads:
    def test_noop(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 8))
        res = prune_heads(w, invert_spd(rand_spd(rng, 8)), 2, 0)
        assert np.array_equal(res.pruned_w, w)
        assert kept_heads(res, 2) == [0, 1, 2, 3]
        assert res.total_rounds == 0

    def test_round1_matches_bruteforce_argmin(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            w, h, d_head, exact = head_instance(rng)
            res = prune_heads(w, invert_spd(h), d_head, 1)
            removed = set(range(len(exact))) - set(kept_heads(res, d_head))
            assert removed == {int(np.argmin(exact))}

    def test_two_rounds_residual_reported(self):
        rng = np.random.default_rng(10)
        ratios = []
        for _ in range(10):
            w, h, d_head, exact = head_instance(rng)
            n_head = len(exact)
            res = prune_heads(w, invert_spd(h), d_head, 2)
            greedy = mask_residual(w, h, res.kept_columns)
            best = min(
                mask_residual(w, h, other_cols(n_head, d_head, [h1, h2]))
                for h1 in range(n_head) for h2 in range(h1 + 1, n_head)
            )
            assert greedy >= best - 1e-9 * max(1, best)
            ratios.append(greedy / best)
        assert np.median(ratios) < 1.25

    def test_restoration_and_structure(self):
        rng = np.random.default_rng(11)
        w, h, d_head, _ = head_instance(rng)
        res = prune_heads(w, invert_spd(h), d_head, 2)
        kept = kept_heads(res, d_head)
        assert kept == sorted(kept)
        expect_cols = np.concatenate([head_cols(d_head, hd) for hd in kept])
        assert np.array_equal(res.kept_columns, expect_cols)
        assert res.pruned_w.shape == (w.shape[0], 2 * d_head)
        # final weights equal the optimal compensation for the kept mask
        expect = least_squares_oracle(w, h, res.kept_columns)
        assert np.abs(res.pruned_w - expect).max() < 1e-8

    def test_zero_head_dominance(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(3, 8))
        w[:, head_cols(2, 2)] = 0.0
        h = rand_spd(rng, 8)
        res = prune_heads(w, invert_spd(h), 2, 1)
        assert kept_heads(res, 2) == [0, 1, 3]
        assert np.array_equal(res.pruned_w, w[:, res.kept_columns])
        assert res.step_error_sum == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(14)
        w, h, d_head, exact = head_instance(rng)
        relabel = rng.permutation(len(exact))  # new position of each old head
        col_perm = np.concatenate([head_cols(d_head, hd) for hd in relabel])
        w2 = w[:, col_perm]
        h2 = SpdMatrix(h.a[np.ix_(col_perm, col_perm)])
        res1 = prune_heads(w, invert_spd(h), d_head, 2)
        res2 = prune_heads(w2, invert_spd(h2), d_head, 2)
        kept1, kept2 = kept_heads(res1, d_head), kept_heads(res2, d_head)
        expect_kept = sorted(int(np.where(relabel == hd)[0][0]) for hd in kept1)
        assert kept2 == expect_kept
        back = {int(np.where(relabel == hd)[0][0]): hd for hd in kept1}
        cols2 = np.concatenate(
            [head_cols(d_head, back[hd]) for hd in kept2]
        )
        expect_w = res1.pruned_w[:, [
            int(np.where(np.concatenate([head_cols(d_head, k) for k in kept1]) == c)[0][0])
            for c in cols2
        ]]
        assert np.abs(res2.pruned_w - expect_w).max() < 1e-9 * max(1, np.abs(w).max())

    def test_scale_invariance(self):
        rng = np.random.default_rng(15)
        w, h, d_head, _ = head_instance(rng)
        res1 = prune_heads(w, invert_spd(h), d_head, 2)
        res2 = prune_heads(w, invert_spd(SpdMatrix(2.0 * h.a)), d_head, 2)
        assert np.array_equal(res1.kept_columns, res2.kept_columns)
        assert np.abs(res1.pruned_w - res2.pruned_w).max() < 1e-12 * max(1, np.abs(w).max())

    def test_refresh_modes_agree(self):
        # the inverse carried across rounds matches re-inverting every round
        rng = np.random.default_rng(16)
        for _ in range(10):
            w, h, d_head, _ = head_instance(rng)
            res = prune_heads(w, invert_spd(h), d_head, 2)
            ref = reinvert_prune_heads(w, h, d_head, 2)
            assert kept_heads(res, d_head) == kept_heads(ref, d_head)
            assert np.abs(res.pruned_w - ref.pruned_w).max() < 1e-6

    def test_downdates_h_inv_in_place(self):
        # the same two rounds through the in-place kernel leave the inverse Hessian of
        # the kept heads, and prune_heads, whose last round computes on the survivors
        # only, keeps the same heads with the same weights
        w, h, d_head, _ = head_instance(np.random.default_rng(17))
        h_inv = invert_spd(h)
        w_run, kept = in_place_rounds(w, h_inv, d_head, [1, 1])
        cols = np.ix_(kept, kept)
        want = invert_spd(SpdMatrix(h.a[cols]))
        assert np.linalg.norm(h_inv[cols] - want) <= 1e-8 * np.linalg.norm(want)
        res = prune_heads(w, invert_spd(h), d_head, 2)
        assert np.array_equal(res.kept_columns, kept)
        assert np.linalg.norm(res.pruned_w - w_run) <= 1e-12 * np.linalg.norm(w_run)

    def test_invalid_args(self):
        w = np.ones((2, 4))
        h = SpdMatrix(np.eye(4))
        with pytest.raises(ValueError):
            prune_heads(w, invert_spd(h), 2, 2)  # would remove every head
        with pytest.raises(ValueError):
            prune_heads(w, invert_spd(h), 2, -1)
        with pytest.raises(ValueError):
            prune_heads(w, np.eye(6), 2, 1)  # h_inv does not match the weights' columns
        with pytest.raises(ValueError):
            prune_heads(w, invert_spd(h), 3, 1)  # d_head does not divide the columns
        with pytest.raises(ValueError):
            prune_heads(w, invert_spd(h), 0, 1)
        with pytest.raises(NotSpdError):
            prune_heads(w, invert_spd(SpdMatrix(np.diag([1.0, 1.0, 1.0, -1.0]))), 2, 1)
