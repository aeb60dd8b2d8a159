"""Column pruning against its exact oracles.

The least-squares oracle itself is validated against explicit feature-space
least squares, then everything else is checked against the oracle.
"""

import math

import numpy as np
import pytest

from obslim.errors import NotSpdError
from obslim.ffn_pruner import prune_channels
from obslim.head_pruner import prune_heads
from obslim.linalg import SpdMatrix, invert_spd, remove_block
from obslim.obs_core import (
    PruneResult,
    block_errors,
    greedy_prune,
    group_sizes,
    least_squares_oracle,
    mask_residual,
)

from conftest import (
    brute_force_best_columns,
    ffn_instance,
    head_instance,
    masked_instance,
    rand_spd,
    remove_compacted,
    remove_sequentially,
)


def residual_of(w, h: SpdMatrix, kept, w_hat) -> float:
    """Reconstruction error of an arbitrary candidate w_hat over kept columns."""
    kept = np.asarray(kept, dtype=np.intp)
    total = float(np.einsum("ij,jk,ik->", w, h.a, w))
    cross = float(np.einsum("ij,ij->", w_hat, w @ h.a[:, kept]))
    quad = float(np.einsum("ij,jk,ik->", w_hat, h.a[np.ix_(kept, kept)], w_hat))
    return total - 2.0 * cross + quad


class TestColumnErrors:
    """``block_errors`` at width 1: the single-column OBS error."""

    def test_identity_hessian(self):
        w = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(block_errors(w, np.eye(2), 1), [10.0, 20.0])

    def test_zero_column(self):
        w = np.array([[0.0, 1.0], [0.0, 2.0]])
        errs = block_errors(w, rand_spd(np.random.default_rng(0), 2).a, 1)
        assert errs[0] == 0.0

    def test_formula_oracle(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 4))
        h_inv = invert_spd(rand_spd(rng, 4))
        errs = block_errors(w, h_inv, 1)
        for p in range(4):
            expect = sum(w[i, p] ** 2 for i in range(4)) / h_inv[p, p]
            assert abs(errs[p] - expect) < 1e-12
        assert np.all(errs >= 0)

    def test_non_positive_diagonal(self):
        with pytest.raises(NotSpdError, match="diagonal"):
            block_errors(np.ones((2, 2)), np.diag([1.0, 0.0]), 1)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            block_errors(np.ones((2, 3)), np.eye(2), 1)

    def test_survivor_mask_reads_only_live_entries(self):
        # the errors of the live columns equal those of the compacted arrays
        # bit for bit, for any number of rows: each column of w is summed in
        # row order, whatever the layout of the compacted w[:, alive]; a dead
        # diagonal entry is never read, a non-positive live one raises
        rng = np.random.default_rng(16)
        w = rng.normal(size=(3, 6))
        h_inv = invert_spd(rand_spd(rng, 6))
        alive = np.ones(6, dtype=bool)
        remove_block(w, h_inv, [4, 1], alive)
        compact = block_errors(w[:, alive], h_inv[np.ix_(alive, alive)], 1)
        h_inv[1, 1], h_inv[4, 4] = -1.0, 0.0
        assert np.array_equal(block_errors(w, h_inv, 1, alive), compact)
        h_inv[2, 2] = 0.0
        with pytest.raises(NotSpdError, match="diagonal"):
            block_errors(w, h_inv, 1, alive)
        for _ in range(50):
            w, h_inv, alive = masked_instance(rng, 1)
            compact = block_errors(w[:, alive], h_inv[np.ix_(alive, alive)], 1)
            assert np.array_equal(block_errors(w, h_inv, 1, alive), compact)


class TestGreedyPrune:
    def test_inline_single_column_error(self):
        rng = np.random.default_rng(17)
        for n in (1, 7, 64):
            w = rng.normal(size=(5, n))
            h_inv = invert_spd(rand_spd(rng, n))
            inline = (w * w).sum(axis=0) / np.diag(h_inv)
            assert np.all(np.abs(block_errors(w, h_inv, 1) - inline) <= 1e-15 * inline)

    def test_two_blocks_in_one_round(self):
        # two 4-column heads in round 0, then one more: the final weights are
        # the least-squares optimum of the kept block, and the step errors
        # paid telescope to its mask residual
        rng = np.random.default_rng(18)
        for _ in range(10):
            w = rng.normal(size=(6, 16))
            h = rand_spd(rng, 16)
            h_inv = invert_spd(h)
            start = block_errors(w, h_inv, 4)
            out, kept, rounds = greedy_prune(w, h_inv, 4, [2, 1])
            first = np.argsort(start, kind="stable")[:2]
            assert rounds[0][0].tolist() == [4 * b + j for b in first for j in range(4)]
            assert [cols.size for cols, _ in rounds] == [8, 4]
            assert kept.size == 4 and kept[0] % 4 == 0 and np.array_equal(np.diff(kept), [1] * 3)
            expect = least_squares_oracle(w, h, kept)
            assert np.abs(out - expect).max() < 1e-8
            paid = sum(float(steps.sum()) for _, steps in rounds)
            resid = mask_residual(w, h, kept)
            assert abs(paid - resid) <= 1e-9 * resid

    def test_invalid_args(self):
        w, h_inv = np.ones((2, 8)), np.eye(8)
        with pytest.raises(ValueError, match="cannot prune"):
            greedy_prune(w, h_inv, 4, [1, 1])  # leaves no block
        with pytest.raises(ValueError, match="cannot prune"):
            greedy_prune(w, h_inv, 1, [0])
        with pytest.raises(ValueError, match="divisible"):
            greedy_prune(w, h_inv, 3, [1])
        with pytest.raises(ValueError, match="divisible"):
            block_errors(w, h_inv, 3)
        with pytest.raises(ValueError):
            greedy_prune(w, np.eye(7), 1, [1])


class TestAdapters:
    """The pruners add nothing to ``greedy_prune``: same inputs, same ``PruneResult`` bits."""

    @staticmethod
    def assert_same_result(res, ref):
        assert isinstance(res, PruneResult)
        assert np.array_equal(res.pruned_w, ref.pruned_w)
        assert np.array_equal(res.kept_columns, ref.kept_columns)
        assert len(res.rounds) == len(ref.rounds)
        for (cols, steps), (ref_cols, ref_steps) in zip(res.rounds, ref.rounds):
            assert np.array_equal(cols, ref_cols) and np.array_equal(steps, ref_steps)

    @staticmethod
    def assert_step_error_sum_in_removal_order(res):
        paid = np.concatenate([steps for _, steps in res.rounds]).tolist()
        assert res.step_error_sum == sum(paid, 0.0)
        assert abs(res.step_error_sum - math.fsum(paid)) <= 1e-12 * math.fsum(paid)

    def test_prune_heads_is_greedy_prune_one_head_per_round(self):
        rng = np.random.default_rng(30)
        for n_prune in (0, 1, 2, 3):
            w, h, d_head, _ = head_instance(rng)
            h_inv = invert_spd(h)
            res = prune_heads(w, h_inv.copy(), d_head, n_prune)
            self.assert_same_result(res, greedy_prune(w, h_inv.copy(), d_head, [1] * n_prune))
            assert res.total_rounds == n_prune
            if n_prune:
                self.assert_step_error_sum_in_removal_order(res)

    def test_prune_channels_is_greedy_prune_over_the_group_sizes(self):
        rng = np.random.default_rng(31)
        for groups in ((1, 1), (4, 1), (16, 2)):
            w, h, n_prune = ffn_instance(rng, max_channels=32)
            h_inv = invert_spd(h)
            sizes = group_sizes(n_prune, *groups)
            res = prune_channels(w, h_inv.copy(), n_prune, *groups)
            self.assert_same_result(res, greedy_prune(w, h_inv.copy(), 1, sizes))
            assert res.total_rounds == len(sizes)
            assert [cols.size for cols, _ in res.rounds] == sizes
            self.assert_step_error_sum_in_removal_order(res)

    def test_unpacks_as_a_triple(self):
        w = np.arange(8.0).reshape(2, 4)
        res = greedy_prune(w, np.eye(4), 2, [])
        pruned_w, kept, rounds = res
        assert np.array_equal(pruned_w, w) and kept.tolist() == [0, 1, 2, 3] and rounds == []
        assert res.total_rounds == 0 and res.step_error_sum == 0.0


class TestPruneColumn:
    """Removing one column: ``remove_block`` with a single index."""

    def test_identity_hinv_zeroes_only_target(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        w_rest, h_rest, _ = remove_compacted(w, np.eye(4), [1])
        assert np.array_equal(w_rest, w[:, [0, 2, 3]])
        assert np.array_equal(h_rest, np.eye(3))

    def test_zero_column_no_change(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 3))
        w[:, 1] = 0.0
        h = rand_spd(rng, 3)
        w_rest, _, steps = remove_compacted(w, invert_spd(h), [1])
        assert steps.tolist() == [0.0]
        assert np.array_equal(w_rest, w[:, [0, 2]])

    def test_matches_least_squares_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.normal(size=(3, 3))
            h = rand_spd(rng, 3)
            p = int(rng.integers(3))
            w_rest, _, _ = remove_compacted(w, invert_spd(h), [p])
            kept = [c for c in range(3) if c != p]
            expect = least_squares_oracle(w, h, kept)
            assert np.abs(w_rest - expect).max() < 1e-8

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            remove_compacted(np.ones((2, 2)), np.eye(2), [2])

    def test_single_row_degenerates_to_single_weight_rule(self):
        # with one row, column pruning is classic single-weight pruning:
        # error w_p^2 / (H^-1)_pp and update -(w_p / (H^-1)_pp) * (H^-1)_p,:
        rng = np.random.default_rng(15)
        d = 5
        w = rng.normal(size=(1, d))
        h_inv = invert_spd(rand_spd(rng, d))
        errs = block_errors(w, h_inv, 1)
        for p in range(d):
            assert abs(errs[p] - w[0, p] ** 2 / h_inv[p, p]) < 1e-15 * errs.max()
        p = int(np.argmin(errs))
        expect = w[0] - (w[0, p] / h_inv[p, p]) * h_inv[p, :]
        w_rest, _, steps = remove_compacted(w, h_inv, [p])
        kept = [c for c in range(d) if c != p]
        assert np.abs(w_rest[0] - expect[kept]).max() < 1e-12
        assert abs(steps[0] - errs[p]) < 1e-12 * errs[p]


class TestLeastSquaresOracle:
    def test_keep_all(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(3, 5))
        h = rand_spd(rng, 5)
        assert np.abs(least_squares_oracle(w, h, np.arange(5)) - w).max() < 1e-9

    def test_identity_hessian_restriction(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(3, 5))
        out = least_squares_oracle(w, SpdMatrix(np.eye(5)), [1, 3])
        assert np.allclose(out, w[:, [1, 3]])

    def test_explicit_feature_space_oracle(self):
        # same minimizer as explicit lstsq over the raw features
        rng = np.random.default_rng(7)
        for _ in range(10):
            n, m = 8, 50
            x = rng.normal(size=(n, m))
            w = rng.normal(size=(4, n))
            h = SpdMatrix(x @ x.T)
            kept = np.sort(rng.choice(n, size=5, replace=False))
            expect, *_ = np.linalg.lstsq(x[kept].T, (w @ x).T, rcond=None)
            assert np.abs(least_squares_oracle(w, h, kept) - expect.T).max() < 1e-8

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 6))
        h = rand_spd(rng, 6)
        kept = [0, 2, 5]
        w_hat = least_squares_oracle(w, h, kept)
        base = residual_of(w, h, kept, w_hat)
        assert abs(base - mask_residual(w, h, kept)) < 1e-9 * max(1, base)
        for _ in range(20):
            probe = w_hat + 1e-3 * rng.normal(size=w_hat.shape)
            assert residual_of(w, h, kept, probe) >= base - 1e-12

    def test_empty_kept(self):
        out = least_squares_oracle(np.ones((2, 3)), SpdMatrix(np.eye(3)), [])
        assert out.shape == (2, 0)

    def test_singular_kept_block(self):
        with pytest.raises(NotSpdError, match="kept-column block of the Hessian is singular"):
            least_squares_oracle(np.ones((2, 3)), SpdMatrix(np.diag([1.0, 0.0, 1.0])), [0, 1])


class TestBruteForce:
    def test_k_zero(self):
        rng = np.random.default_rng(9)
        w = rng.normal(size=(2, 4))
        removed, err = brute_force_best_columns(w, rand_spd(rng, 4), 0)
        assert removed == ()
        assert err < 1e-12

    def test_k_all(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=(2, 3))
        h = rand_spd(rng, 3)
        removed, err = brute_force_best_columns(w, h, 3)
        assert removed == (0, 1, 2)
        expect = float(np.trace(w @ h.a @ w.T))  # nothing kept: full energy lost
        assert abs(err - expect) < 1e-9 * max(1, expect)

    def test_independent_enumeration_oracle(self):
        # exhaustive evaluation through explicit feature-space least squares
        rng = np.random.default_rng(11)
        from itertools import combinations

        n, m = 6, 40
        x = rng.normal(size=(n, m))
        w = rng.normal(size=(3, n))
        h = SpdMatrix(x @ x.T)
        removed, err = brute_force_best_columns(w, h, 2)
        best_err, best_set = np.inf, None
        for drop in combinations(range(n), 2):
            kept = np.setdiff1d(np.arange(n), drop)
            w_hat, *_ = np.linalg.lstsq(x[kept].T, (w @ x).T, rcond=None)
            resid = float(((w @ x - w_hat.T @ x[kept]) ** 2).sum())
            if resid < best_err:
                best_err, best_set = resid, drop
        assert removed == best_set
        assert abs(err - best_err) < 1e-7 * max(1.0, best_err)

    @pytest.mark.parametrize("k", [-1, 5])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError, match=f"cannot remove {k} of 4 columns"):
            brute_force_best_columns(np.ones((1, 4)), SpdMatrix(np.eye(4)), k)

    def test_enumeration_guard(self):
        with pytest.raises(ValueError, match="guard"):
            brute_force_best_columns(np.ones((1, 50)), SpdMatrix(np.eye(50)), 25)


class TestSequentialExactness:
    def test_any_order_matches_mask_oracle(self):
        # one block call in the removal order and one call per column agree
        # with the closed-form optimum for the final mask
        rng = np.random.default_rng(12)
        for _ in range(15):
            d = int(rng.integers(4, 10))
            w = rng.normal(size=(int(rng.integers(2, 6)), d))
            h = rand_spd(rng, d)
            removed = rng.choice(d, size=int(rng.integers(1, d)), replace=False)
            kept = sorted(set(range(d)) - set(removed.tolist()))
            expect = least_squares_oracle(w, h, kept)
            norm = max(np.linalg.norm(expect), 1e-12)
            for _ in range(3):
                order = rng.permutation(removed)
                w_blk, _, _ = remove_compacted(w, invert_spd(h), order)
                w_seq, _, alive, _ = remove_sequentially(w, invert_spd(h), order)
                assert alive == kept
                assert np.linalg.norm(w_blk - expect) / norm < 1e-8
                assert np.linalg.norm(w_seq - expect) / norm < 1e-8

    def test_step_errors_bound_mask_residual(self):
        # accumulated step errors telescope to the joint residual, hence >=
        rng = np.random.default_rng(13)
        for _ in range(10):
            d = 8
            w = rng.normal(size=(4, d))
            h = rand_spd(rng, d)
            order = rng.choice(d, size=4, replace=False)
            _, _, alive, steps = remove_sequentially(w, invert_spd(h), order)
            total = sum(err for _, err in steps)
            resid = mask_residual(w, h, alive)
            assert total >= resid - 1e-9 * max(1, resid)
            assert abs(total - resid) < 1e-8 * max(1, resid)

    def test_scale_invariance(self):
        # H -> cH scales every error by c uniformly, so the argmin and all
        # compensation updates are unchanged
        rng = np.random.default_rng(14)
        w = rng.normal(size=(4, 6))
        h = rand_spd(rng, 6)
        h2 = SpdMatrix(2.0 * h.a)
        errs1 = block_errors(w, invert_spd(h), 1)
        errs2 = block_errors(w, invert_spd(h2), 1)
        assert np.argmin(errs1) == np.argmin(errs2)
        assert np.abs(errs2 - 2.0 * errs1).max() < 1e-8 * errs1.max()
        w1, _, _ = remove_compacted(w, invert_spd(h), [2])
        w2, _, _ = remove_compacted(w, invert_spd(h2), [2])
        assert np.abs(w1 - w2).max() < 1e-12
