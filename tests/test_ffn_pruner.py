"""Group-size schedules and grouped channel pruning vs. plain greedy."""

import numpy as np
import pytest

from obslim.ffn_pruner import GroupSchedule, group_sizes, prune_channels
from obslim.linalg import SpdMatrix, invert_spd
from obslim.obs_core import least_squares_oracle, mask_residual

from conftest import ffn_instance, greedy_channels, rand_spd, step_pairs


class TestGroupSizes:
    def test_zero(self):
        assert group_sizes(0, GroupSchedule(1024, 8)) == []

    def test_halving_small(self):
        assert group_sizes(5, GroupSchedule(4, 1)) == [4, 1]

    def test_halving_large(self):
        sizes = group_sizes(2056, GroupSchedule(1024, 8))
        assert sizes == [1024, 512, 256, 128, 64, 32, 16, 8, 8, 8]
        assert sum(sizes) == 2056

    def test_non_increasing_and_exact_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            total = int(rng.integers(0, 3000))
            start = int(rng.integers(1, 1200))
            mn = int(rng.integers(1, start + 1))
            sizes = group_sizes(total, GroupSchedule(start, mn))
            assert sum(sizes) == total
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert all(s <= start for s in sizes)

    def test_invalid(self):
        with pytest.raises(ValueError):
            GroupSchedule(4, 8)
        with pytest.raises(ValueError):
            GroupSchedule(4, 0)
        with pytest.raises(ValueError):
            group_sizes(-1, GroupSchedule(4, 1))


class TestPruneChannels:
    def test_zero_columns_removed_free(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 8))
        zero_cols = [1, 4, 6]
        w[:, zero_cols] = 0.0
        h_inv = invert_spd(SpdMatrix(np.eye(8)))
        out, kept, rounds = prune_channels(w, h_inv, 3, GroupSchedule(2, 1))
        assert sorted(set(range(8)) - set(kept.tolist())) == zero_cols
        assert sum(err for _, err in step_pairs(rounds)) == 0.0
        assert np.array_equal(out, w[:, kept])

    def test_group_one_is_exact_greedy(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w, h, n_prune = ffn_instance(rng, max_channels=24)
            out, kept, rounds = prune_channels(w, invert_spd(h), n_prune, GroupSchedule(1, 1))
            ref_w, ref_kept, ref_steps = greedy_channels(w, h, n_prune)
            assert kept.tolist() == ref_kept
            assert step_pairs(rounds) == ref_steps  # same selection sequence, same floats
            assert np.array_equal(out, ref_w)

    def test_compensation_always_exact(self):
        # whatever mask the schedule picks, weights match the oracle
        rng = np.random.default_rng(3)
        for sched in (GroupSchedule(16, 2), GroupSchedule(4, 1), GroupSchedule(8, 8)):
            w, h, n_prune = ffn_instance(rng, max_channels=32)
            out, kept, rounds = prune_channels(w, invert_spd(h), n_prune, sched)
            expect = least_squares_oracle(w, h, kept)
            norm = max(np.linalg.norm(expect), 1e-12)
            assert np.linalg.norm(out - expect) / norm < 1e-8
            assert len(kept) == w.shape[1] - n_prune
            steps = step_pairs(rounds)
            assert len(steps) == n_prune
            removed = [orig for orig, _ in steps]
            assert len(set(removed)) == n_prune  # no column picked twice
            assert set(removed).isdisjoint(kept.tolist())

    def test_dynamic_vs_fixed_group_monte_carlo(self):
        # dynamic decay tracks greedy at least as well as one big fixed group
        # in most trials, and both stay within 10% of greedy on average
        rng = np.random.default_rng(4)
        n_trials = 20
        dyn_le_fixed = 0
        dyn_ratios = []
        fixed_ratios = []
        for _ in range(n_trials):
            d = 16
            w = rng.normal(size=(6, d)) * np.exp(0.5 * rng.normal(size=d))[None, :]
            h = rand_spd(rng, d)
            n_prune = 8
            greedy = mask_residual(w, h, greedy_channels(w, h, n_prune)[1])
            _, kept_dyn, _ = prune_channels(w, invert_spd(h), n_prune, GroupSchedule(4, 1))
            _, kept_fix, _ = prune_channels(w, invert_spd(h), n_prune, GroupSchedule(8, 8))
            r_dyn = mask_residual(w, h, kept_dyn) / greedy
            r_fix = mask_residual(w, h, kept_fix) / greedy
            dyn_le_fixed += r_dyn <= r_fix + 1e-12
            dyn_ratios.append(r_dyn)
            fixed_ratios.append(r_fix)
        assert dyn_le_fixed >= int(0.6 * n_trials)
        assert np.mean(dyn_ratios) < 1.10
        assert np.mean(fixed_ratios) < 1.10

    def test_downdates_h_inv_in_place(self):
        # the caller's inverse ends as the inverse Hessian of the kept channels
        rng = np.random.default_rng(5)
        w, h, n_prune = ffn_instance(rng, max_channels=24)
        h_inv = invert_spd(h)
        _, kept, _ = prune_channels(w, h_inv, n_prune, GroupSchedule(4, 1))
        want = invert_spd(SpdMatrix(h.a[np.ix_(kept, kept)]))
        assert np.linalg.norm(h_inv[np.ix_(kept, kept)] - want) <= 1e-8 * np.linalg.norm(want)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            prune_channels(np.ones((2, 4)), invert_spd(SpdMatrix(np.eye(4))), 4,
                           GroupSchedule(2, 1))
