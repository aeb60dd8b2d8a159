"""SPD kernel tests: every derived value comes from an independent oracle
(np.linalg.inv / explicit reconstruction), never from the code under test."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dpotri

from obslim.errors import NotSpdError
from obslim.linalg import SpdMatrix, invert_spd, remove_block
from obslim.obs_core import block_errors, least_squares_oracle, mask_residual

from conftest import (
    compact_remove_block,
    rand_spd,
    remove_compacted,
    remove_sequentially,
    symmetrized,
)


def delete_rc(a: np.ndarray, p: int) -> np.ndarray:
    return np.delete(np.delete(a, p, axis=0), p, axis=1)


# The three public entry points that take a Hessian, each as a function of it alone.
HESSIAN_ENTRY_POINTS = (
    invert_spd,
    lambda h: least_squares_oracle(np.ones((1, len(h))), h, [0]),
    lambda h: mask_residual(np.ones((1, len(h))), h, [0]),
)


class TestSpdMatrix:
    """The placeholder, and the check each Hessian entry point makes of a plain array."""

    def test_placeholder_cannot_be_built(self):
        with pytest.raises(TypeError, match="^pass the Hessian as a plain array$"):
            SpdMatrix(np.eye(3))

    def test_symmetrizes_small_asymmetry(self):
        a = np.array([[2.0, 1.0], [1.0 + 1e-12, 2.0]])
        for entry in HESSIAN_ENTRY_POINTS:
            assert np.array_equal(entry(a), entry(symmetrized(a)))
        assert np.array_equal(invert_spd(a), invert_spd(a).T)

    def test_rejects_large_asymmetry(self):
        for entry in HESSIAN_ENTRY_POINTS:
            with pytest.raises(ValueError, match="not symmetric"):
                entry(np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_symmetry_bound(self):
        # the asymmetry bound is 1e-9 of max(1, largest |entry|): 2e-9 here
        for entry in HESSIAN_ENTRY_POINTS:
            entry([[2.0, 1.0], [1.0 + 1e-9, 2.0]])
            with pytest.raises(ValueError, match="not symmetric"):
                entry([[2.0, 1.0], [1.0 + 4e-9, 2.0]])

    def test_rejects_non_square_and_non_finite(self):
        for entry in HESSIAN_ENTRY_POINTS:
            with pytest.raises(ValueError, match="^expected a square matrix, got shape"):
                entry(np.ones((2, 3)))
            with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
                entry(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestInvertSpd:
    def test_identity(self):
        assert np.allclose(invert_spd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        inv = invert_spd(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-14)

    def test_multiply_back_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            m = rand_spd(rng, 8)
            inv = invert_spd(m)
            assert np.abs(m @ inv - np.eye(8)).max() < 1e-8
            assert np.array_equal(inv, inv.T)

    def test_not_spd(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(NotSpdError, match="not SPD"):
            invert_spd(bad)

    def test_rejects_overflowing_inverse(self):
        # dpotrf accepts the subnormal pivot; its inverse overflows to inf
        with pytest.raises(ValueError, match="non-finite"):
            invert_spd(np.diag([1e-310, 1.0]))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        for n in (1, 7, 64, 200):
            inv = invert_spd(rand_spd(rng, n))
            assert np.array_equal(inv, inv.T)

    def test_mirror_allocates_nothing_n_by_n(self):
        # the Hessian check's one n x n buffer becomes the factor and then
        # the inverse, whose dpotri triangle is mirrored in row panels:
        # nothing else n x n is held beside it, and the result is bit for
        # bit the whole-matrix np.tril mirror
        n = 512
        m = rand_spd(np.random.default_rng(13), n, m_factor=2)
        want, _ = dpotri(dpotrf(m, lower=1, clean=1)[0], lower=1, overwrite_c=1)
        want += np.tril(want, -1).T
        tracemalloc.start()
        try:
            inv = invert_spd(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n * 8
        assert inv.tobytes() == want.T.tobytes()

    def test_plain_array_ready_for_remove_block(self):
        # the inverse goes straight into the in-place kernel, which agrees
        # with the compacting formula on it
        rng = np.random.default_rng(12)
        inv = invert_spd(rand_spd(rng, 7))
        assert type(inv) is np.ndarray and inv.dtype == np.float64
        assert inv.flags.c_contiguous and inv.flags.writeable
        w = rng.normal(size=(3, 7))
        w_want, h_want, steps_want = compact_remove_block(w, inv.copy(), [5, 2])
        alive = np.ones(7, dtype=bool)
        steps = remove_block(w, inv, [5, 2], alive)
        assert np.abs(w[:, alive] - w_want).max() < 1e-10 * np.abs(w_want).max()
        assert np.abs(inv[np.ix_(alive, alive)] - h_want).max() < 1e-10 * np.abs(h_want).max()
        assert np.abs(steps - steps_want).max() < 1e-10 * steps_want.max()

    @pytest.mark.parametrize("cond", [1e0, 1e2, 1e4, 1e6, 1e8])
    def test_matches_numpy_inverse_up_to_condition(self, cond):
        # Two backward-stable inverses agree only to about cond * eps (at
        # cond 1e8, np.linalg.inv and a triangular-solve inverse differ by
        # 2e-9), so the bound scales as 1e-15 * cond: 1e-10 at cond 1e5.
        rng = np.random.default_rng(int(np.log10(cond)))
        for n in (8, 32, 128):
            q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            m = symmetrized((q * np.logspace(0, -np.log10(cond), n)) @ q.T)
            inv, ref = invert_spd(m), np.linalg.inv(m)
            assert np.abs(inv - ref).max() <= 1e-15 * cond * np.abs(ref).max()


def block_pivots(h_inv, width: int) -> np.ndarray:
    """The factor diagonals of ``h_inv``'s ``width`` diagonal blocks, (blocks, width),
    read through ``block_errors``: a unit weight row at column j scores 1 / L_b[j, j]**2."""
    h_inv = np.asarray(h_inv, dtype=np.float64)
    rows = np.eye(h_inv.shape[0])[:, None, :]
    return np.array([block_errors(r, h_inv, width).sum() for r in rows]).reshape(-1, width) ** -0.5


def pivots(a) -> np.ndarray:
    """The whole-matrix lower Cholesky factor's diagonal: one block of width n."""
    return block_pivots(a, np.shape(a)[0])[0]


class TestCholeskyLower:
    """The whole-matrix factor as ``block_errors`` shows it: its pivots."""

    def test_identity(self):
        assert np.array_equal(pivots(np.eye(4)), np.ones(4))

    def test_known_2x2(self):
        assert np.allclose(pivots(np.array([[4.0, 2.0], [2.0, 5.0]])), [2.0, 2.0])

    def test_scalar(self):
        assert np.allclose(pivots([[9.0]]), [3.0])

    def test_positive_pivots_match_leading_inverses(self):
        # 1 / L[j, j]**2 is the last diagonal entry of inv(A[:j+1, :j+1])
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = rand_spd(rng, 12)
            piv = pivots(m)
            want = [np.linalg.inv(m[: j + 1, : j + 1])[j, j] ** -0.5 for j in range(12)]
            assert np.all(piv > 0)
            assert np.abs(piv - want).max() < 1e-8 * max(1, np.abs(m).max())

    def test_not_spd(self):
        with pytest.raises(NotSpdError):
            pivots(-np.eye(2))


class TestPermuteSymmetric:
    """Removal order: ``remove_block`` takes the removed block in any order."""

    def test_identity_perm(self):
        # ascending order in one call equals one index at a time in that order
        rng = np.random.default_rng(3)
        h = rand_spd(rng, 7)
        w = rng.normal(size=(3, 7))
        h_inv = invert_spd(h)
        w_blk, h_blk, steps = remove_compacted(w, h_inv, [1, 3, 4])
        w_seq, h_seq, kept, seq_steps = remove_sequentially(w, h_inv, [1, 3, 4])
        assert kept == [0, 2, 5, 6]
        assert np.abs(w_blk - w_seq).max() < 1e-10 * np.abs(w).max()
        assert np.abs(h_blk - h_seq).max() < 1e-10 * np.abs(h_inv).max()
        assert np.abs(steps - [e for _, e in seq_steps]).max() < 1e-10 * steps.max()

    def test_swap(self):
        # hand-evaluated OBS steps: the order changes the per-step errors,
        # not their sum, the surviving weights or the Schur complement
        h_inv = np.array([[4.0, 2.0, 0.0], [2.0, 5.0, 0.0], [0.0, 0.0, 1.0]])
        w = np.array([[1.0, 1.0, 1.0]])
        w01, h01, s01 = remove_compacted(w, h_inv, [0, 1])
        w10, h10, s10 = remove_compacted(w, h_inv, [1, 0])
        assert np.allclose(s01, [1 / 4, 1 / 16], rtol=0, atol=1e-15)
        assert np.allclose(s10, [1 / 5, 9 / 80], rtol=0, atol=1e-15)
        for w_rest, h_rest in ((w01, h01), (w10, h10)):
            assert np.array_equal(w_rest, [[1.0]])
            assert np.array_equal(h_rest, [[1.0]])

    def test_permute_invert_commute_oracle(self):
        # the Schur complement over any removal order, against np.linalg.inv
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 16))
            h = rand_spd(rng, n)
            idx = rng.permutation(n)[: int(rng.integers(1, n))]
            rest = np.setdiff1d(np.arange(n), idx)
            _, h_rest, _ = remove_compacted(np.zeros((1, n)), invert_spd(h), idx)
            assert np.abs(h_rest - np.linalg.inv(h[np.ix_(rest, rest)])).max() < 1e-8

    def test_rejects_non_bijection(self):
        h_inv = invert_spd(rand_spd(np.random.default_rng(5), 3))
        with pytest.raises(ValueError, match="repeated"):
            remove_compacted(np.ones((1, 3)), h_inv, [0, 0, 2])


class TestGroupedCholesky:
    """``block_errors``' grouped factorization: each diagonal block on its own."""

    def test_identity_blocks(self):
        w = np.arange(8.0).reshape(2, 4)
        errs = block_errors(w, np.eye(4), 2)
        assert np.array_equal(errs, [(w[:, :2] ** 2).sum(), (w[:, 2:] ** 2).sum()])
        assert np.array_equal(block_pivots(np.eye(4), 2), np.ones((2, 2)))

    def test_block_diagonal_known_blocks(self):
        a = np.array([[4.0, 2.0], [2.0, 5.0]])
        b = np.array([[9.0, 3.0], [3.0, 5.0]])
        m = np.block([[a, np.zeros((2, 2))], [np.zeros((2, 2)), b]])
        piv = block_pivots(m, 2)
        assert np.allclose(piv[0], np.diag(np.linalg.cholesky(a)))
        assert np.allclose(piv[1], np.diag(np.linalg.cholesky(b)))

    def test_per_block_oracle_and_leading_block_identity(self):
        # block k of the grouped factorization equals the Cholesky of that
        # diagonal block; only k=0 coincides with the full factor's slice
        rng = np.random.default_rng(6)
        m = rand_spd(rng, 12)
        piv = block_pivots(m, 4)
        full = np.diag(np.linalg.cholesky(m))
        for k in range(3):
            blk = m[4 * k : 4 * (k + 1), 4 * k : 4 * (k + 1)]
            assert np.abs(piv[k] - np.diag(np.linalg.cholesky(blk))).max() < 1e-10
        assert np.abs(piv[0] - full[:4]).max() < 1e-10
        assert np.abs(piv[1] - full[4:8]).max() > 1e-6  # trailing differs

    def test_dimension_not_divisible(self):
        with pytest.raises(ValueError, match="divisible"):
            block_errors(np.ones((1, 5)), np.eye(5), 2)

    def test_group_size_below_one(self):
        with pytest.raises(ValueError, match="block width 0"):
            block_errors(np.ones((1, 4)), np.eye(4), 0)

    def test_block_not_spd(self):
        m = np.diag([1.0, -1.0, 1.0, 1.0])
        with pytest.raises(NotSpdError):
            block_errors(np.ones((1, 4)), m, 2)


class TestRemoveUpdate:
    """Single-index removal: the k = 1 case of ``remove_block``."""

    def test_known_2x2(self):
        # H = [[2,1],[1,2]]; deleting index 0 leaves [2] whose inverse is 0.5
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        _, out, _ = remove_compacted(np.zeros((1, 2)), np.linalg.inv(h), [0])
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 0.5) < 1e-12

    def test_diagonal(self):
        _, out, _ = remove_compacted(np.zeros((1, 3)), np.diag([1.0, 2.0, 3.0]), [1])
        assert np.allclose(out, np.diag([1.0, 3.0]))

    def test_direct_inversion_oracle_all_indices(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = rand_spd(rng, 6)
            h_inv = invert_spd(h)
            for p in range(6):
                expect = np.linalg.inv(delete_rc(h, p))
                _, out, _ = remove_compacted(np.zeros((1, 6)), h_inv, [p])
                assert np.abs(out - expect).max() < 1e-8

    def test_zero_pivot(self):
        with pytest.raises(NotSpdError, match="not SPD"):
            remove_compacted(np.ones((1, 2)), np.diag([1.0, 0.0]), [1])

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            remove_compacted(np.ones((1, 2)), np.eye(2), [2])


class TestProperties:
    def test_leading_principal_cholesky(self):
        # leading principal submatrix of the factor == factor of the submatrix
        rng = np.random.default_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 20))
            m = rand_spd(rng, n)
            low = np.linalg.cholesky(m)
            k = int(rng.integers(1, n + 1))
            sub = np.linalg.cholesky(m[:k, :k])
            assert np.abs(low[:k, :k] - sub).max() < 1e-8

    def test_sequential_removals_match_direct_inverse(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = 10
            h = rand_spd(rng, n)
            h_inv = invert_spd(h)
            d = int(rng.integers(1, n - 1))
            _, h_inv, _, _ = remove_sequentially(np.zeros((1, n)), h_inv, range(d))
            expect = np.linalg.inv(h[d:, d:])
            assert np.abs(h_inv - expect).max() < 1e-8

    def test_trailing_factor_identity(self):
        # trailing block of Cholesky(H^-1) reproduces the inverse after
        # sequentially removing the leading indices
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = 12
            h = rand_spd(rng, n)
            h_inv = invert_spd(h)
            low = np.linalg.cholesky(h_inv)
            d = int(rng.integers(1, n - 1))
            _, seq, _, _ = remove_sequentially(np.zeros((1, n)), h_inv, range(d))
            tail = low[d:, d:]
            assert np.abs(tail @ tail.T - seq).max() < 1e-8

    def test_determinism(self):
        rng = np.random.default_rng(11)
        m = rand_spd(rng, 9)
        assert np.array_equal(invert_spd(m), invert_spd(m))
        w = rng.normal(size=(2, 9))
        assert np.array_equal(block_errors(w, m, 3), block_errors(w, m, 3))
        first, second = remove_compacted(w, m, [3, 1]), remove_compacted(w, m, [3, 1])
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


@st.composite
def block_instances(draw):
    """A random SPD Hessian, weights, and a block of indices in a random order."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h = rand_spd(rng, n)
    w = rng.normal(size=(draw(st.integers(1, 6)), n))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True))
    return w, h, idx


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestRemoveBlock:
    """Properties of the block kernel against oracles that never call it."""

    @PROPERTY
    @given(block_instances())
    def test_inverse_of_deleted_hessian(self, inst):
        w, h, idx = inst
        rest = np.setdiff1d(np.arange(len(h)), idx)
        _, h_rest, _ = remove_compacted(w, invert_spd(h), idx)
        assert np.abs(h_rest - np.linalg.inv(h[np.ix_(rest, rest)])).max() < 1e-8

    @PROPERTY
    @given(block_instances())
    def test_weights_and_errors_match_least_squares(self, inst):
        w, h, idx = inst
        rest = np.setdiff1d(np.arange(len(h)), idx)
        w_rest, _, steps = remove_compacted(w, invert_spd(h), idx)
        expect = least_squares_oracle(w, h, rest)
        assert np.linalg.norm(w_rest - expect) < 1e-8 * max(np.linalg.norm(expect), 1e-12)
        resid = mask_residual(w, h, rest)
        assert steps.shape == (len(idx),) and np.all(steps >= 0)
        assert abs(steps.sum() - resid) < 1e-8 * max(1.0, resid)

    @PROPERTY
    @given(block_instances())
    def test_step_errors_follow_the_given_order(self, inst):
        w, h, idx = inst
        h_inv = invert_spd(h)
        _, _, steps = remove_compacted(w, h_inv, idx)
        _, _, _, seq = remove_sequentially(w, h_inv, idx)
        assert [orig for orig, _ in seq] == list(idx)
        assert np.abs(steps - [e for _, e in seq]).max() < 1e-8 * max(1.0, steps.max())


@st.composite
def removal_sequences(draw):
    """A random SPD instance and disjoint blocks to remove in turn, leaving a column.

    With ``heads`` drawn true, the columns form ``n_head`` heads of ``d``
    and every block is one whole head; otherwise the blocks are random
    index sets in a random order.
    """
    heads = draw(st.booleans())
    if heads:
        d, n_head = draw(st.integers(1, 8)), draw(st.integers(2, 6))
        n = n_head * d
        order = draw(st.permutations(range(n_head)))[: draw(st.integers(1, n_head - 1))]
        blocks = [list(range(hd * d, (hd + 1) * d)) for hd in order]
    else:
        n = draw(st.integers(2, 16))
        perm = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=1, unique=True)))
        blocks = [perm[a:b] for a, b in zip([0] + cuts[:-1], cuts)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(size=(draw(st.integers(1, 6)), n))
    return w, rand_spd(rng, n), blocks, heads


def assert_rel_close(got, expect, bound=1e-12):
    assert np.abs(got - expect).max() <= bound * max(np.abs(expect).max(), 1e-300)


class TestRemoveBlockInPlace:
    """The in-place kernel and its survivor mask against the compacting formula."""

    @PROPERTY
    @given(removal_sequences())
    def test_masked_sequence_matches_compacting_oracle(self, inst):
        # every call, made on arrays that already hold dead rows and columns,
        # leaves the survivors where the compacting formula takes them from
        # the compacted state before the call
        w, h, blocks, heads = inst
        w_run, h_run = w.copy(), invert_spd(h)
        alive = np.ones(len(h), dtype=bool)
        for blk in blocks:
            live = np.flatnonzero(alive)
            w_ref, h_ref, steps_ref = compact_remove_block(
                w_run[:, live], h_run[np.ix_(live, live)], np.searchsorted(live, blk))
            steps = remove_block(w_run, h_run, blk, alive)
            assert np.array_equal(np.flatnonzero(alive), np.setdiff1d(live, blk))
            assert_rel_close(w_run[:, alive], w_ref)
            assert_rel_close(h_run[np.ix_(alive, alive)], h_ref)
            assert_rel_close(steps, steps_ref)
            if heads and min(w_ref.shape) > 1:
                # bit for bit, while the oracle's Q C is a matrix product
                # too: numpy computes one with a single row or column by gemv
                assert np.array_equal(w_run[:, alive], w_ref)
                assert np.array_equal(steps, steps_ref)
        # the removed rows and columns are left at rounding level
        dead = ~alive
        assert np.abs(h_run[dead]).max() <= 1e-12 * np.abs(h_run).max()
        assert np.abs(w_run[:, dead]).max() <= 1e-12 * max(np.abs(w).max(), 1e-300)

    def test_rejected_calls_change_nothing(self):
        rng = np.random.default_rng(16)
        h_inv = invert_spd(rand_spd(rng, 5))
        w = rng.normal(size=(2, 5))
        alive = np.ones(5, dtype=bool)
        remove_block(w, h_inv, [3], alive)
        before = w.copy(), h_inv.copy(), alive.copy()
        for idx, err, match in (([3], ValueError, "already removed"),
                                ([0, 3], ValueError, "already removed"),
                                ([1, 1], ValueError, "repeated"),
                                ([5], ValueError, "out of range"),
                                ([], ValueError, "non-empty")):
            with pytest.raises(err, match=match):
                remove_block(w, h_inv, idx, alive)
        with pytest.raises(ValueError, match="inconsistent dims"):
            remove_block(w, h_inv, [0], np.ones(4, dtype=bool))  # mask of another size
        h_bad = h_inv.copy()
        h_bad[1, 1] = -1.0
        with pytest.raises(NotSpdError, match="not SPD"):
            remove_block(w, h_bad, [1], alive)
        for got, expect in zip((w, h_inv, alive), before):
            assert np.array_equal(got, expect)

    def test_rejects_arrays_it_cannot_update_in_place(self):
        h_inv, w = np.eye(4), np.ones((2, 4))
        read_only = w.copy()
        read_only.flags.writeable = False
        for w_bad, h_bad in ((np.ones((4, 2)).T, h_inv),
                             (w, np.asfortranarray(np.diag([1.0, 2.0, 3.0, 4.0]))),
                             (w.astype(np.float32), h_inv),
                             (read_only, h_inv)):
            alive = np.ones(4, dtype=bool)
            with pytest.raises(ValueError, match="C-contiguous float64"):
                remove_block(w_bad, h_bad, [0], alive)
            assert alive.all()

    def test_one_call_allocates_less_than_one_n_by_n_array(self):
        # w (n x n) and h_inv are updated in place: the call's temporaries
        # are k x n, never n x n (8 n^2 bytes, 2.1 MB at n = 512)
        rng = np.random.default_rng(17)
        n = 512
        h_inv = invert_spd(rand_spd(rng, n, m_factor=2))
        w = rng.normal(size=(n, n))
        alive = np.ones(n, dtype=bool)
        tracemalloc.start()
        try:
            remove_block(w, h_inv, np.arange(100, 108), alive)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n
