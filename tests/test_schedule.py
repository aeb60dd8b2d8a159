"""Ratio curves, rounding to unit counts, and the global-target solver."""

import math

import numpy as np
import pytest

from obslim.schedule import (
    VARIANTS,
    PruneSchedule,
    build_schedule,
    counts_from_ratio,
    ratio_at,
    schedule_ratios,
    solve_last_ratio,
)

CURVES = tuple(v for v in VARIANTS if v != "uniform")
RN_GRID = tuple(k / 100 for k in range(100))


class TestRatioAt:
    def test_log_increase_endpoints(self):
        assert ratio_at(0, 8, 0.2, 0.5, "log_increase") == 0.2
        assert ratio_at(7, 8, 0.2, 0.5, "log_increase") == pytest.approx(0.5, abs=1e-15)

    def test_log_increase_known_value(self):
        # log(2)/log(32) = 1/5 exactly, so layer 1 of 32 sits at 0.26
        got = ratio_at(1, 32, 0.2, 0.5, "log_increase")
        assert abs(got - 0.26) < 1e-12

    def test_endpoint_exactness_all_variants(self):
        for variant in ("log_increase", "linear_increase", "log_decrease", "linear_decrease"):
            for r0, rn in ((0.1, 0.6), (0.6, 0.1)):
                assert ratio_at(0, 9, r0, rn, variant) == pytest.approx(r0, abs=1e-15)
                assert ratio_at(8, 9, r0, rn, variant) == pytest.approx(rn, abs=1e-15)
        assert ratio_at(3, 9, 0.3, 0.3, "uniform") == 0.3

    def test_monotonicity(self):
        for variant in ("log_increase", "linear_increase"):
            ratios = schedule_ratios(16, 0.1, 0.7, variant)
            assert np.all(np.diff(ratios) >= 0)
        for variant in ("log_decrease", "linear_decrease"):
            ratios = schedule_ratios(16, 0.7, 0.1, variant)
            assert np.all(np.diff(ratios) <= 0)

    def test_decrease_mirrors_increase(self):
        for n, r0, rn in ((12, 0.55, 0.15), (2, 0.4, 0.0), (7, 0.1, 0.9)):
            for dec, inc in (("log_decrease", "log_increase"),
                             ("linear_decrease", "linear_increase")):
                for i in range(n):
                    assert ratio_at(i, n, r0, rn, dec) == ratio_at(n - 1 - i, n, rn, r0, inc)

    @pytest.mark.parametrize("variant", CURVES)
    def test_endpoints_exact_on_grid(self, variant):
        for n in range(2, 65):
            for r0 in (0.0, 0.1, 0.25):
                for rn in RN_GRID:
                    assert ratio_at(0, n, r0, rn, variant) == r0, (n, r0, rn)
                    assert ratio_at(n - 1, n, r0, rn, variant) == rn, (n, r0, rn)

    @pytest.mark.parametrize("variant", CURVES)
    def test_ratios_lie_between_endpoints(self, variant):
        for n in (2, 3, 5, 8, 13, 24, 32, 48, 64):
            for r0 in (0.0, 0.1, 0.25):
                for rn in RN_GRID:
                    ratios = schedule_ratios(n, r0, rn, variant)
                    assert min(r0, rn) <= ratios.min(), (n, r0, rn)
                    assert ratios.max() <= max(r0, rn), (n, r0, rn)

    def test_uniform_requires_equal_endpoints(self):
        with pytest.raises(ValueError, match="uniform"):
            ratio_at(0, 4, 0.1, 0.2, "uniform")

    def test_errors(self):
        with pytest.raises(ValueError, match="at least 2"):
            ratio_at(0, 1, 0.1, 0.2, "log_increase")
        with pytest.raises(ValueError):
            ratio_at(4, 4, 0.1, 0.2, "log_increase")
        with pytest.raises(ValueError):
            ratio_at(0, 4, 1.0, 0.2, "log_increase")
        with pytest.raises(ValueError, match="unknown variant"):
            ratio_at(0, 4, 0.1, 0.2, "cubic")


class TestCounts:
    def test_zero(self):
        assert counts_from_ratio(0.0, 32) == 0

    def test_half(self):
        assert counts_from_ratio(0.5, 32) == 16

    def test_large_direct_rounding(self):
        assert counts_from_ratio(0.33, 11008) == 3633

    def test_never_removes_all(self):
        assert counts_from_ratio(0.99, 10) == 9
        assert counts_from_ratio(0.95, 1) == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            counts_from_ratio(1.0, 4)
        with pytest.raises(ValueError):
            counts_from_ratio(0.5, 0)


class TestSolveLastRatio:
    def test_flat_target(self):
        rn = solve_last_ratio(0.3, 0.3, np.ones(8), "log_increase")
        assert abs(rn - 0.3) < 1e-5

    def test_linear_closed_form(self):
        # uniform weights make the linear mean (r0 + rn) / 2
        rn = solve_last_ratio(0.4, 0.1, np.ones(10), "linear_increase")
        assert abs(rn - 0.7) < 1e-5

    def test_log_recompute_mean_oracle(self):
        weights = np.ones(32)
        rn = solve_last_ratio(0.5, 0.2, weights, "log_increase")
        ratios = schedule_ratios(32, 0.2, rn, "log_increase")
        assert abs(np.average(ratios, weights=weights) - 0.5) < 1e-6

    def test_weighted_recompute_mean(self):
        rng = np.random.default_rng(0)
        weights = rng.uniform(0.5, 3.0, size=12)
        rn = solve_last_ratio(0.45, 0.15, weights, "log_increase")
        ratios = schedule_ratios(12, 0.15, rn, "log_increase")
        assert abs(np.average(ratios, weights=weights) - 0.45) < 1e-6

    def test_decrease_variant_solvable(self):
        rn = solve_last_ratio(0.5, 0.7, np.ones(8), "log_decrease")
        ratios = schedule_ratios(8, 0.7, rn, "log_decrease")
        assert abs(np.mean(ratios) - 0.5) < 1e-6
        assert rn < 0.7

    def test_unreachable(self):
        with pytest.raises(ValueError, match="unreachable"):
            solve_last_ratio(0.05, 0.5, np.ones(8), "log_increase")
        with pytest.raises(ValueError):
            solve_last_ratio(0.6, 0.3, np.ones(8), "uniform")

    @pytest.mark.parametrize("variant", CURVES)
    def test_closed_form_hits_target(self, variant):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            weights = rng.uniform(0.0, 5.0, size=n)
            r0 = float(rng.uniform(0.0, 0.5))
            lo, hi = (np.average(schedule_ratios(n, r0, rn, variant), weights=weights)
                      for rn in (0.0, 0.99))
            target = float(rng.uniform(lo, hi))
            rn = solve_last_ratio(target, r0, weights, variant)
            mean = np.average(schedule_ratios(n, r0, rn, variant), weights=weights)
            assert abs(mean - target) < 1e-12

    def test_mean_independent_of_last_ratio(self):
        # all weight on layer 0, whose ratio is r0 for every rn: a flat schedule
        weights = np.array([3.0, 0.0, 0.0, 0.0])
        for variant in CURVES:
            assert solve_last_ratio(0.2, 0.2, weights, variant) == 0.2
            assert solve_last_ratio(0.2 + 5e-7, 0.2, weights, variant) == 0.2
            with pytest.raises(ValueError, match="unreachable"):
                solve_last_ratio(0.3, 0.2, weights, variant)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            solve_last_ratio(0.4, 0.1, np.zeros(4), "log_increase")


class TestPruneSchedule:
    def test_build_with_target(self):
        sched = build_schedule(8, "log_increase", r0=0.25, global_target=0.5)
        assert sched.n_layers == 8
        assert abs(np.mean(sched.ratios) - 0.5) < 1e-6
        assert sched.ratios[0] == 0.25
        assert sched.ratios[-1] == solve_last_ratio(0.5, 0.25, np.ones(8), "log_increase")

    def test_build_uniform(self):
        sched = build_schedule(5, "uniform", global_target=0.4)
        assert sched.ratios == (0.4,) * 5

    def test_build_endpoints(self):
        sched = build_schedule(6, "linear_increase", r0=0.1, rn=0.6)
        assert sched.ratios[0] == 0.1
        assert sched.ratios[-1] == pytest.approx(0.6, abs=1e-15)

    def test_build_defaults(self):
        assert build_schedule(4, "linear_increase").ratios == (0.0,) * 4
        assert build_schedule(4, "log_increase", r0=0.3).ratios == pytest.approx((0.3,) * 4)
        assert build_schedule(4, "uniform", r0=0.2, rn=0.2).ratios == (0.2,) * 4

    @pytest.mark.parametrize("variant, kwargs", [
        ("log_increase", {"rn": 0.5, "global_target": 0.3}),
        ("uniform", {"rn": 0.5, "global_target": 0.3}),
        ("uniform", {"r0": 0.1, "global_target": 0.4}),
        ("uniform", {"r0": 0.1, "rn": 0.5}),
        ("uniform", {"rn": 0.5}),
    ], ids=["rn-and-target", "uniform-rn-and-target", "uniform-r0-and-target",
            "uniform-rn-unequal", "uniform-rn-without-r0"])
    def test_ignored_setting_raises(self, variant, kwargs):
        with pytest.raises(ValueError):
            build_schedule(6, variant, **kwargs)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_one_layer_has_one_ratio(self, variant):
        # a 1-layer model is both first and last layer: every variant
        # resolves its single ratio the way the uniform variant does
        assert build_schedule(1, variant, global_target=0.4).ratios == (0.4,)
        assert build_schedule(1, variant, r0=0.2).ratios == (0.2,)
        assert build_schedule(1, variant).ratios == (0.0,)
        assert build_schedule(1, variant, r0=0.2, rn=0.2).variant == variant
        for kwargs in ({"r0": 0.2, "rn": 0.3}, {"r0": 0.2, "global_target": 0.4}):
            with pytest.raises(ValueError, match="one-ratio"):
                build_schedule(1, variant, **kwargs)

    def test_reversed_mirror(self):
        # the mirror of a schedule is its decrease counterpart with swapped endpoints
        for inc_variant in ("log_increase", "linear_increase"):
            inc = build_schedule(8, inc_variant, r0=0.25, global_target=0.5)
            dec_variant = inc_variant.replace("increase", "decrease")
            dec = build_schedule(8, dec_variant, r0=inc.ratios[-1], rn=inc.ratios[0])
            assert dec.variant == dec_variant
            assert dec.ratios == tuple(reversed(inc.ratios))

    def test_custom_tag(self):
        sched = PruneSchedule(ratios=(0.5, 0.0), variant="custom")
        assert sched.n_layers == 2
        with pytest.raises(ValueError):
            PruneSchedule(ratios=(0.5,), variant="mystery")

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            PruneSchedule(ratios=(1.0,), variant="uniform")
