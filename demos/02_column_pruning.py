"""Column pruning with exact compensation, against its oracles.

Removing a column of W costs sum(w_p^2) / (H^-1)_pp in reconstruction
error, and the surviving columns absorb a closed-form update. Removing a
whole set of columns at once (`remove_block`, the group OBS step) pays the
same per-column errors as removing them one by one in the given order, and
lands exactly on the least-squares optimum for the final mask, whatever
the order. Greedy selection comes close to the exhaustive best subset.

Run: python demos/02_column_pruning.py
"""

import numpy as np

from obslim import (
    HessianAccumulator,
    brute_force_best_columns,
    column_errors,
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

errs = column_errors(w, h_inv)
print("per-column removal errors:")
for p, err in enumerate(errs):
    print(f"  column {p}: {err:10.3f}")
print(f"cheapest column: {np.argmin(errs)}")

# --- prune three columns greedily, one remove_block call per column ---------
# remove_block updates w and h_inv in place over their full width and clears
# the removed columns in a survivor mask; read both through that mask.
w_cur, h_inv_cur = w.copy(), h_inv.copy()
alive = np.ones(d, dtype=bool)
step_sum = 0.0
for _ in range(3):
    cur = column_errors(w_cur, h_inv_cur, alive)
    pick = int(np.flatnonzero(alive)[np.argmin(cur)])
    print(f"removing original column {pick} (estimated error {cur.min():.3f})")
    step_sum += float(remove_block(w_cur, h_inv_cur, [pick], alive)[0])
kept = np.flatnonzero(alive).tolist()
w_cur = w_cur[:, alive]

greedy_resid = mask_residual(w, h, kept)
print(f"\nkept columns: {kept}")
print(f"sum of step errors:     {step_sum:10.3f}")
print(f"residual of final mask: {greedy_resid:10.3f}  (telescopes to the same value)")

# --- compensation is exact for the chosen mask ------------------------------
expect = least_squares_oracle(w, h, kept)
dev = np.abs(w_cur - expect).max()
print(f"\nmax deviation from closed-form optimum for this mask: {dev:.2e}")

# --- and greedy is near the exhaustive optimum ------------------------------
best_set, best_err = brute_force_best_columns(w, h, 3)
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
                 - np.linalg.inv(h.a[np.ix_(kept, kept)])).max() < 1e-10)
