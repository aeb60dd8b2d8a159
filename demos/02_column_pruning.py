"""Column pruning with exact compensation, against its oracles.

Removing a column of W costs sum(w_p^2) / (H^-1)_pp in reconstruction
error, and the surviving columns absorb a closed-form update. Removing a
whole set of columns at once (`remove_block`, the group OBS step) pays the
same per-column errors as removing them one by one in the given order, and
lands exactly on the least-squares optimum for the final mask, whatever
the order. Greedy selection comes close to the exhaustive best subset.

Run: python demos/02_column_pruning.py
"""

from itertools import combinations

import numpy as np

from obslim import (
    HessianAccumulator,
    block_errors,
    greedy_prune,
    invert_spd,
    least_squares_oracle,
    mask_residual,
    remove_block,
)

rng = np.random.default_rng(1)

# A layer with 8 input columns, calibrated on 200 tokens of correlated data
d, tokens = 8, 200
mix = np.eye(d) + 0.4 * rng.normal(size=(d, d)) / np.sqrt(d)
x = mix @ rng.normal(size=(d, tokens))
w = rng.normal(size=(5, d)) * np.exp(0.6 * rng.normal(size=d))[None, :]

h = HessianAccumulator(d).accumulate(x).finalize(damping_frac=0.01)
h_inv = invert_spd(h)

errs = block_errors(w, h_inv, 1)  # blocks of one column
print("per-column removal errors:")
for p, err in enumerate(errs):
    print(f"  column {p}: {err:10.3f}")
print(f"cheapest column: {np.argmin(errs)}")

# --- prune three columns greedily, one block-OBS step per round ------------
# greedy_prune rescores the live columns every round and removes the cheapest
# with exact compensation; it uses h_inv as scratch, so it gets a copy.
w_cur, kept, rounds = greedy_prune(w, h_inv.copy(), 1, [1, 1, 1])
for cols, steps in rounds:
    print(f"removed original column {cols[0]} (paid error {steps[0]:.3f})")
step_sum = sum(float(steps.sum()) for _, steps in rounds)
kept = kept.tolist()

greedy_resid = mask_residual(w, h, kept)
print(f"\nkept columns: {kept}")
print(f"sum of step errors:     {step_sum:10.3f}")
print(f"residual of final mask: {greedy_resid:10.3f}  (telescopes to the same value)")

# --- compensation is exact for the chosen mask ------------------------------
expect = least_squares_oracle(w, h, kept)
dev = np.abs(w_cur - expect).max()
print(f"\nmax deviation from closed-form optimum for this mask: {dev:.2e}")

# --- and greedy is near the exhaustive optimum ------------------------------
# all 56 three-column removals, each scored by its optimally compensated mask
best_err, best_set = min(
    (mask_residual(w, h, [c for c in range(d) if c not in removed]), removed)
    for removed in combinations(range(d), 3)
)
print(f"exhaustive best 3-column removal: {best_set} with residual {best_err:.3f}")
print(f"greedy / optimal residual ratio:  {greedy_resid / best_err:.4f}")

# --- one block call, any order: same final weights and inverse Hessian ------
removed = sorted(set(range(d)) - set(kept))
for order in (removed, removed[::-1]):
    w_blk, h_inv_blk, alive = w.copy(), h_inv.copy(), np.ones(d, dtype=bool)
    steps = remove_block(w_blk, h_inv_blk, order, alive)
    print(f"\nblock removal in order {order}: step errors {np.round(steps, 3)}"
          f" (sum {steps.sum():.3f})")
    print("  same final weights:", np.abs(w_blk[:, alive] - w_cur).max() < 1e-10)
    print("  inverse Hessian equals inv(H[kept, kept]):",
          np.abs(h_inv_blk[np.ix_(alive, alive)]
                 - np.linalg.inv(h[np.ix_(kept, kept)])).max() < 1e-10)
