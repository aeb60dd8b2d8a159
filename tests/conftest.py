"""Shared random-instance generators for the test suite.

Instances mimic the shapes this package prunes: weight matrices with
unevenly important heads/channels and Hessians built from correlated
calibration features (finite sample counts, so off-diagonal structure is
always present). ``brute_force_best_columns`` is the exhaustive-search
oracle for column selection. The ``deadline`` fixture and ``ffn_in_worker``
serve the tests of the forked reference worker. ``SRC`` is the tree under
test, and ``NON_FINITE`` the weights that make pruning meet non-finite values.
"""

import math
import os
import signal
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_triangular

import obslim
from obslim import pipeline
from obslim.linalg import SpdMatrix, invert_spd, remove_block
from obslim.obs_core import PruneResult, block_errors, least_squares_oracle, mask_residual

# The directory that holds the obslim this run imported, which PYTHONPATH
# picks; every test that starts obslim in a new process or copies it uses it.
SRC = Path(obslim.__file__).resolve().parent.parent

# Tensors of a gen-toy seed 1 model (3 layers, d_model 16, 4 heads, d_ff 24,
# 2 batches of 24 tokens), a scale for them, and the one error pruning must
# raise: (a) an attention Hessian's inverse overflows; (b) a pruned FFN's
# features overflow; (c) and (d) those of an FFN that removes nothing do,
# so only the layer's output error sees them; (e) attention scores overflow,
# so the bound on them is inf, the softmax takes two passes and the
# features are NaN.
NON_FINITE = {
    "a": (("layers.1.attn.wv",), 1e-159,
          "pruning failed at layer 1 (attention): inverse has non-finite entries"),
    "b": (("layers.1.ffn.w_up", "layers.1.ffn.w_gate"), 1e200,
          "pruning failed at layer 1 (FFN): non-finite values in calibration batch"),
    "c": (("layers.2.ffn.w_up", "layers.2.ffn.w_gate"), 1e200,
          "pruning failed at layer 2: its output error is not finite"),
    "d": (("layers.0.ffn.w_up", "layers.0.ffn.w_gate"), 1e200,
          "pruning failed at layer 0: its output error is not finite"),
    "e": (("layers.1.attn.wq", "layers.1.attn.wk"), 1e200,
          "pruning failed at layer 1 (attention): non-finite values in calibration batch"),
}


def dense_causal_attention(lw, x):
    """Reference causal attention over the full masked t x t scores.

    Returns ``(stream after residual add, features into wo)``, the features
    of ``pipeline._attention`` and the output of the caller's ``wo``
    projection: per head, ``softmax(q^T k / sqrt(d))`` with the
    future masked to -inf, as ``exp(z - max) / sum`` row by row. Heads with
    an all-zero ``wo`` block contribute nothing and leave their feature rows 0.
    """
    h = x / np.sqrt((x * x).mean(axis=0, keepdims=True) + 1e-6)
    d, t = lw.d_head, x.shape[1]
    future = np.triu(np.ones((t, t), dtype=bool), k=1)
    feats = np.zeros((lw.n_head * d, t))
    out = x.copy()
    for head in range(lw.n_head):
        sl = slice(head * d, (head + 1) * d)
        if not lw.wo[:, sl].any():
            continue
        q, k, v = lw.wq[sl] @ h, lw.wk[sl] @ h, lw.wv[sl] @ h
        z = np.where(future, -np.inf, q.T @ k / np.sqrt(d))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        feats[sl] = v @ (e / e.sum(axis=1, keepdims=True)).T
        out += lw.wo[:, sl] @ feats[sl]
    return out, feats


# Exhaustive search refuses to enumerate more subsets than this.
ENUMERATION_GUARD = 100_000


def brute_force_best_columns(w: np.ndarray, h: SpdMatrix, k: int):
    """Exhaustively find the k columns whose removal costs least.

    Returns ``(removed, error)`` where ``removed`` is the lexicographically
    first optimal index tuple and ``error`` the exact residual of the
    optimally compensated complement.

    Raises:
        ValueError: if the number of k-subsets exceeds ``ENUMERATION_GUARD``.
    """
    w = np.asarray(w, dtype=np.float64)
    d = w.shape[1]
    if not 0 <= k <= d:
        raise ValueError(f"cannot remove {k} of {d} columns")
    if math.comb(d, k) > ENUMERATION_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: C({d},{k}) = {math.comb(d, k)} subsets"
        )
    all_cols = np.arange(d)
    best_removed = None
    best_err = np.inf
    for removed in combinations(range(d), k):
        kept = np.setdiff1d(all_cols, removed, assume_unique=True)
        err = mask_residual(w, h, kept)
        if err < best_err:
            best_err = err
            best_removed = removed
    return best_removed, float(best_err)


def rand_spd(rng, n: int, m_factor: int = 4, gamma: float = 0.3) -> SpdMatrix:
    """SPD Hessian of mildly mixed features, 2 X X^T with m_factor*n tokens."""
    mix = np.eye(n) + gamma * rng.normal(size=(n, n)) / np.sqrt(n)
    x = mix @ rng.normal(size=(n, m_factor * n))
    return SpdMatrix(2.0 * x @ x.T)


def head_cols(d_head: int, head: int) -> np.ndarray:
    """The columns of head ``head``: the block ``[head * d_head, (head + 1) * d_head)``."""
    return np.arange(head * d_head, (head + 1) * d_head)


def other_cols(n_head: int, d_head: int, head) -> np.ndarray:
    """All columns except the given head(s)."""
    drop = np.concatenate([head_cols(d_head, h) for h in np.atleast_1d(head)])
    return np.setdiff1d(np.arange(n_head * d_head), drop)


def kept_heads(result: PruneResult, d_head: int) -> list:
    """The heads whose columns ``result`` kept, in ascending order."""
    return (result.kept_columns[::d_head] // d_head).tolist()


def exact_head_residuals(w, h: SpdMatrix, d_head: int) -> np.ndarray:
    """Exact residual of optimally removing each single head."""
    n_head = w.shape[1] // d_head
    return np.array(
        [mask_residual(w, h, other_cols(n_head, d_head, hd)) for hd in range(n_head)]
    )


def head_instance(rng, n_head: int = 4, sep: float = 2.0):
    """Random head-pruning instance with a clearly best head.

    Features carry a per-head shared component (within-head correlation
    0.2..0.6) and a mild global mixing; per-head weight scales are
    log-normal, mirroring the wide importance spread of real attention
    heads. Instances whose two cheapest heads sit within `sep` of each
    other are resampled so the exact argmin is well defined.
    """
    while True:
        d_head = int(rng.integers(2, 5))
        n = n_head * d_head
        m = 32 * n
        rho = rng.uniform(0.2, 0.6)
        x = np.sqrt(1.0 - rho) * rng.normal(size=(n, m))
        for hd in range(n_head):
            x[head_cols(d_head, hd)] += np.sqrt(rho) * rng.normal(size=m)
        mix = np.eye(n) + 0.15 * rng.normal(size=(n, n)) / np.sqrt(n)
        xm = mix @ x
        h = SpdMatrix(2.0 * xm @ xm.T)
        w = rng.normal(size=(int(rng.integers(8, 17)), n))
        for hd in range(n_head):
            w[:, head_cols(d_head, hd)] *= np.exp(0.8 * rng.normal())
        exact = exact_head_residuals(w, h, d_head)
        srt = np.sort(exact)
        if srt[1] >= sep * srt[0]:
            return w, h, d_head, exact


def ffn_instance(rng, max_channels: int = 64):
    """Random FFN channel-pruning instance at half pruning."""
    d = int(rng.integers(16, max_channels + 1))
    w = rng.normal(size=(int(rng.integers(8, 17)), d))
    w *= np.exp(0.5 * rng.normal(size=d))[None, :]
    h = rand_spd(rng, d, m_factor=4, gamma=0.3)
    return w, h, d // 2


def compact_remove_block(w, h_inv, idx):
    """The compacting block-OBS formula: an oracle for the in-place ``remove_block``.

    With ``rest`` the other columns in ascending order, ``L`` the Cholesky
    factor of ``h_inv[idx, idx]``, ``Q = w[:, idx] L^-T`` and
    ``C = L^-1 h_inv[idx, rest]``, returns ``(w[:, rest] - Q C,
    h_inv[rest, rest] - C^T C, step_errors)``: new arrays over the survivors.
    """
    idx = np.asarray(idx, dtype=np.intp)
    rest = np.setdiff1d(np.arange(h_inv.shape[0]), idx)
    low = np.linalg.cholesky(h_inv[np.ix_(idx, idx)])
    q_t = solve_triangular(low, w[:, idx].T, lower=True)
    c = solve_triangular(low, h_inv[np.ix_(idx, rest)], lower=True)
    return w[:, rest] - q_t.T @ c, h_inv[np.ix_(rest, rest)] - c.T @ c, (q_t * q_t).sum(axis=1)


def remove_compacted(w, h_inv, idx):
    """``remove_block`` on fresh copies of ``w`` and ``h_inv``, compacted through its mask.

    Returns ``(w_rest, h_inv_rest, step_errors)`` over the surviving columns
    in ascending order, as ``compact_remove_block`` does; the arguments are
    left as they were.
    """
    w = np.array(w, dtype=np.float64, order="C")
    h_inv = np.array(h_inv, dtype=np.float64, order="C")
    alive = np.ones(h_inv.shape[0], dtype=bool)
    steps = remove_block(w, h_inv, idx, alive)
    return w[:, alive], h_inv[np.ix_(alive, alive)], steps


def remove_sequentially(w, h_inv, order):
    """Remove the original columns ``order`` one in-place ``remove_block`` (k = 1) call at a time.

    Works on copies. Returns ``(w_kept, h_inv_kept, kept, step_errors)``
    compacted through the survivor mask, with ``kept`` the surviving
    original columns in ascending order and one ``(original column, error)``
    pair per removal.
    """
    w = np.array(w, dtype=np.float64, order="C")
    h_inv = np.array(h_inv, dtype=np.float64, order="C")
    alive = np.ones(h_inv.shape[0], dtype=bool)
    steps = [(int(orig), float(remove_block(w, h_inv, [orig], alive)[0])) for orig in order]
    return w[:, alive], h_inv[np.ix_(alive, alive)], np.flatnonzero(alive).tolist(), steps


def masked_instance(rng, width: int):
    """``(w, h_inv, alive)`` after ``remove_block`` took random whole blocks of
    ``width`` columns out of a random instance: 2-40 rows, 2-8 blocks, 1 or more dead."""
    n_blocks = int(rng.integers(2, 9))
    w = rng.normal(size=(int(rng.integers(2, 41)), n_blocks * width))
    h_inv = invert_spd(rand_spd(rng, n_blocks * width))
    dead = rng.choice(n_blocks, size=int(rng.integers(1, n_blocks)), replace=False)
    alive = np.ones(w.shape[1], dtype=bool)
    remove_block(w, h_inv, (dead[:, None] * width + np.arange(width)).ravel(), alive)
    return w, h_inv, alive


def in_place_rounds(w, h_inv, width: int, sizes):
    """``greedy_prune``'s rounds, every one of them an in-place ``remove_block`` call.

    Works on a copy of ``w`` and downdates ``h_inv`` in place, also in the
    last round. Returns ``(w_kept, kept)``: the weights compacted through
    the survivor mask and the surviving original columns in ascending order.
    """
    w = np.array(w, dtype=np.float64, order="C")
    alive = np.ones(w.shape[1], dtype=bool)
    for k in sizes:
        live = np.flatnonzero(alive[::width])
        picked = live[np.argsort(block_errors(w, h_inv, width, alive), kind="stable")[:k]]
        remove_block(w, h_inv, (picked[:, None] * width + np.arange(width)).ravel(), alive)
    return w[:, alive], np.flatnonzero(alive)


def step_pairs(rounds) -> list:
    """One ``(original column, error)`` pair per removal of a ``PruneResult``'s rounds, in order."""
    return [pair for cols, steps in rounds for pair in zip(cols.tolist(), steps.tolist())]


def greedy_channels(w, h: SpdMatrix, n_prune: int):
    """Plain greedy column pruning: rescore, then remove the argmin, one column a call.

    Scores with the inline single-column OBS error ``sum(w**2) / diag(h_inv)``,
    independent of ``block_errors``. Returns ``(pruned_w, kept, step_errors)``:
    the kept columns as a list and one ``(original column, error)`` pair per
    removal, as ``step_pairs`` lists those of a ``prune_channels`` result.
    """
    w = np.array(w, dtype=np.float64, order="C")
    h_inv = invert_spd(h)
    alive = np.ones(w.shape[1], dtype=bool)
    steps = []
    for _ in range(n_prune):
        errs = (w * w).sum(axis=0)[alive] / h_inv.diagonal()[alive]
        orig = int(np.flatnonzero(alive)[np.argmin(errs)])
        steps.append((orig, float(remove_block(w, h_inv, [orig], alive)[0])))
    return w[:, alive], np.flatnonzero(alive).tolist(), steps


def reinvert_prune_heads(w, h: SpdMatrix, d_head: int, n_prune: int) -> PruneResult:
    """Reference greedy head pruning that never carries an inverse between rounds.

    Every round re-inverts the kept submatrix of ``h`` and scores the
    surviving heads on the least-squares-optimal weights for the current
    mask. Each round's entry is the removed head's columns and one error,
    the rise of the mask residual it causes, so the errors telescope to the
    final mask residual.
    """
    alive = list(range(w.shape[1] // d_head))
    rounds, paid = [], 0.0
    for _ in range(n_prune):
        cols = np.concatenate([head_cols(d_head, hd) for hd in alive])
        w_cur = least_squares_oracle(w, h, cols)
        h_kept = SpdMatrix(h.a[np.ix_(cols, cols)])
        head = alive.pop(int(np.argmin(block_errors(w_cur, invert_spd(h_kept), d_head))))
        resid = mask_residual(w, h, np.concatenate([head_cols(d_head, hd) for hd in alive]))
        rounds.append((head_cols(d_head, head), np.array([resid - paid])))
        paid = resid
    cols = np.concatenate([head_cols(d_head, hd) for hd in alive])
    return PruneResult(least_squares_oracle(w, h, cols), cols, rounds)


@pytest.fixture()
def deadline():
    """Raise ``TimeoutError`` in a test still running after 60 s, instead of hanging."""
    def expire(signum, frame):
        raise TimeoutError("test still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def ffn_in_worker(monkeypatch, act):
    """Call ``act()`` at the start of the reference worker's first FFN pass."""
    parent = os.getpid()

    def ffn(*args, _fn=pipeline._ffn):
        if os.getpid() != parent:
            act()
        return _fn(*args)

    monkeypatch.setattr(pipeline, "_ffn", ffn)
