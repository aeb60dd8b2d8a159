"""Hessian accumulation: additivity, damping and the in-place inverse."""

import tracemalloc

import numpy as np
import pytest

from obslim.calib import HessianAccumulator
from obslim.errors import NotSpdError
from obslim.linalg import invert_spd

from conftest import symmetrized


class TestAccumulate:
    def test_zero_batch_leaves_sum(self):
        acc = HessianAccumulator(3)
        acc.accumulate(np.zeros((3, 5)))
        assert np.array_equal(acc.sum, np.zeros((3, 3)))
        assert acc.n_samples == 5

    def test_unit_column(self):
        acc = HessianAccumulator(3)
        acc.accumulate(np.array([[1.0], [0.0], [0.0]]))
        expect = np.zeros((3, 3))
        expect[0, 0] = 2.0
        assert np.array_equal(acc.sum, expect)

    def test_additivity_oracle(self):
        # two batches equal one concatenated batch
        rng = np.random.default_rng(0)
        for _ in range(10):
            a = rng.normal(size=(6, 11))
            b = rng.normal(size=(6, 7))
            split = HessianAccumulator(6).accumulate(a).accumulate(b)
            joint = HessianAccumulator(6).accumulate(np.hstack([a, b]))
            assert np.abs(split.sum - joint.sum).max() < 1e-10
            assert split.n_samples == joint.n_samples == 18

    def test_scale_equivariance_exact_for_pow2(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 9))
        base = HessianAccumulator(5).accumulate(x)
        scaled = HessianAccumulator(5).accumulate(2.0 * x)
        assert np.array_equal(scaled.sum, 4.0 * base.sum)

    def test_zero_dim(self):
        with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
            HessianAccumulator(0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            HessianAccumulator(3).accumulate(np.zeros((4, 2)))

    def test_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            HessianAccumulator(2).accumulate(np.array([[np.nan], [0.0]]))

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "float32"])
    def test_lower_triangle_holds_the_sum(self, layout):
        shape = {"C": np.ascontiguousarray, "F": np.asfortranarray,
                 "strided": lambda x: x[:, ::2], "float32": lambda x: x.astype(np.float32)}
        rng = np.random.default_rng(2)
        acc = HessianAccumulator(7)
        want = np.zeros((7, 7))
        for tokens in (10, 18):
            x = shape[layout](rng.normal(size=(7, tokens)))
            acc.accumulate(x)
            x = np.asarray(x, dtype=np.float64)
            want += 2.0 * (x @ x.T)
        assert acc.sum.flags.f_contiguous and acc.n_samples == (14 if layout == "strided" else 28)
        assert np.abs(np.tril(acc.sum) - np.tril(want)).max() <= 1e-12 * np.abs(want).max()
        assert not np.triu(acc.sum, 1).any()

    def test_accumulate_allocates_no_square_temporary(self):
        n = 512
        x = np.random.default_rng(3).normal(size=(n, 128))
        acc = HessianAccumulator(n).accumulate(x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            acc.accumulate(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * 8 * n * n, peak


class TestFinalize:
    def test_no_damping_identity(self):
        acc = HessianAccumulator(2)
        acc.sum = 2.0 * np.eye(2)
        acc.n_samples = 1
        assert np.array_equal(acc.finalize(0.0), 2.0 * np.eye(2))

    def test_damping_value(self):
        # mean diagonal of diag(2, 4) is 3, so damping 0.01 adds 0.03
        acc = HessianAccumulator(2)
        acc.sum = np.diag([2.0, 4.0])
        acc.n_samples = 1
        out = acc.finalize(0.01)
        assert np.allclose(out, np.diag([2.03, 4.03]), atol=1e-15)

    def test_rank_deficient_becomes_spd(self):
        acc = HessianAccumulator(4)
        acc.accumulate(np.ones((4, 1)))  # rank-1 sum
        h = acc.finalize(0.01)
        low = np.linalg.cholesky(h)
        assert np.all(np.diag(low) > 0)

    def test_singular_without_damping(self):
        acc = HessianAccumulator(3)
        acc.accumulate(np.zeros((3, 2)))
        with pytest.raises(NotSpdError, match="not SPD"):
            invert_spd(acc.finalize(0.0))
        with pytest.raises(NotSpdError, match="not SPD"):
            acc.inverse(0.0)

    def test_indefinite_sum(self):
        acc = HessianAccumulator(2)
        acc.sum = np.array([[1.0, 0.0], [2.0, 1.0]], order="F")  # lower triangle only
        acc.n_samples = 1
        with pytest.raises(NotSpdError, match="not SPD"):
            invert_spd(acc.finalize(0.0))

    def test_rank_deficient_is_rejected_where_inverted(self):
        # finalize validates but does not factor: the one factorization,
        # in invert_spd, finds the rank-1 sum not positive definite
        acc = HessianAccumulator(4).accumulate(np.ones((4, 1)))
        h = acc.finalize(0.0)
        assert type(h) is np.ndarray
        assert np.array_equal(h, 2.0 * np.ones((4, 4)))
        with pytest.raises(NotSpdError, match="not SPD"):
            invert_spd(h)

    def test_non_finite_sum(self):
        acc = HessianAccumulator(2).accumulate(np.eye(2))
        acc.sum[0, 0] = np.inf
        with pytest.raises(NotSpdError, match="singular Hessian"):
            acc.finalize(0.0)
        with pytest.raises(NotSpdError, match="singular Hessian"):
            acc.inverse(0.0)

    def test_empty_accumulator(self):
        with pytest.raises(ValueError, match="empty"):
            HessianAccumulator(2).finalize(0.01)

    def test_negative_damping(self):
        acc = HessianAccumulator(2).accumulate(np.eye(2))
        with pytest.raises(ValueError):
            acc.finalize(-0.1)


    def test_array_with_the_bits_of_the_symmetrized_damped_sum(self):
        # the damped sum mirrored from its lower triangle, symmetrized as
        # (H + H^T)/2 the way the Hessian checks leave it: the same bits
        rng = np.random.default_rng(5)
        acc = HessianAccumulator(9)
        for _ in range(3):
            acc.accumulate(rng.normal(size=(9, 14)))
        low = np.tril(acc.sum)
        full = low + np.tril(low, -1).T
        diag = np.diag(acc.sum)
        np.fill_diagonal(full, diag + 0.01 * np.mean(diag))
        h = acc.finalize(0.01)
        assert type(h) is np.ndarray
        assert h.tobytes() == symmetrized(full).tobytes()

    def test_finalize_leaves_the_sum(self):
        acc = HessianAccumulator(5).accumulate(np.random.default_rng(4).normal(size=(5, 8)))
        before = acc.sum.copy()
        first, second = acc.finalize(0.01), acc.finalize(0.01)
        assert np.array_equal(first, second)
        assert np.array_equal(acc.sum, before)


class TestInverse:
    @pytest.mark.parametrize("n, tokens", [(6, 20), (70, 50), (130, 300)])
    def test_same_bits_as_finalize_then_invert_spd(self, n, tokens):
        rng = np.random.default_rng(n)
        acc = HessianAccumulator(n)
        for _ in range(3):
            acc.accumulate(rng.normal(size=(n, tokens)))
        want = invert_spd(acc.finalize(0.01))
        got = acc.inverse(0.01)
        assert np.array_equal(got, want)
        assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable

    def test_consumes_the_accumulator(self):
        acc = HessianAccumulator(3).accumulate(np.eye(3))
        assert np.allclose(acc.inverse(0.0), 0.5 * np.eye(3), rtol=1e-15, atol=0)
        for call in (lambda: acc.inverse(0.01), lambda: acc.finalize(0.01),
                     lambda: acc.accumulate(np.eye(3))):
            with pytest.raises(ValueError, match="consumed"):
                call()
