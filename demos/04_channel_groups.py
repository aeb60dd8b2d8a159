"""FFN channel pruning with a decaying group size.

Re-estimating column errors after every single removal is exact greedy but
slow at FFN widths; taking the k cheapest columns per iteration is fast but
stale. A decaying group size (large groups first, shrinking to fine-grained
steps) keeps nearly all of greedy's quality at a fraction of the
re-estimations.

Run: python demos/04_channel_groups.py
"""

import numpy as np

from obslim import greedy_prune, group_sizes, invert_spd, mask_residual

rng = np.random.default_rng(11)

# --- what the schedules emit --------------------------------------------------
print("group sizes for 2056 removals, start 1024 floor 8:")
print("  ", group_sizes(2056, 1024, 8))
print("group sizes for 32 removals, start 8 floor 2:")
print("  ", group_sizes(32, 8, 2))

# --- quality vs. re-estimation count -------------------------------------------
def instance(d=64):
    mix = np.eye(d) + 0.3 * rng.normal(size=(d, d)) / np.sqrt(d)
    x = mix @ rng.normal(size=(d, 4 * d))
    w = rng.normal(size=(12, d)) * np.exp(0.5 * rng.normal(size=d))[None, :]
    return w, 2.0 * x @ x.T


schedules = {  # (group_start, group_min)
    "greedy (size 1)": (1, 1),
    "decay 8 -> 2": (8, 2),
    "decay 16 -> 2": (16, 2),
    "fixed 16": (16, 16),
    "one shot (32)": (32, 32),
}

n_trials = 40
ratios = {name: [] for name in schedules}
estimations = {}
for _ in range(n_trials):
    w, h = instance()
    base = None
    for name, groups in schedules.items():
        res = greedy_prune(w, invert_spd(h), 1, group_sizes(32, *groups))
        estimations[name] = res.total_rounds  # one error estimation per round
        resid = mask_residual(w, h, res.kept_columns)
        if name == "greedy (size 1)":
            base = resid
        ratios[name].append(resid / base)

print(f"\nresidual relative to exact greedy, {n_trials} random 64-channel "
      f"instances pruned to half:")
print(f"{'schedule':>16}  {'error estimations':>18}  {'mean':>7}  {'worst':>7}")
for name in schedules:
    arr = np.array(ratios[name])
    print(f"{name:>16}  {estimations[name]:>18}  {arr.mean():7.4f}  {arr.max():7.4f}")

print("\nthe decaying schedules track greedy with a handful of estimation "
      "passes; a single coarse pass is measurably worse.")
