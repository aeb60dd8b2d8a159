"""Per-layer pruning-ratio curves and the global-target solver.

Layer-wise pruning errors compound with depth, so the default curve prunes
shallow layers gently and deep layers harder, rising logarithmically. Given
a global parameter target, the last-layer ratio is solved in closed form:
every curve is r0 * (1 - u) + rn * u, with u rising from 0 at the first
layer to 1 at the last, so the first and last ratios are exactly r0 and rn
and the parameter-weighted mean is affine in rn.

Run: python demos/05_ratio_schedules.py
"""

import numpy as np

from obslim import build_schedule, counts_from_ratio

n = 8

# --- the five curve shapes at matched endpoints --------------------------------
print("per-layer ratios, r0=0.2, rn=0.6 (decrease variants start high):")
header = "layer:     " + " ".join(f"{i:>6}" for i in range(n))
print(header)
for variant, r0, rn in (
    ("log_increase", 0.2, 0.6),
    ("linear_increase", 0.2, 0.6),
    ("log_decrease", 0.6, 0.2),
    ("linear_decrease", 0.6, 0.2),
):
    ratios = build_schedule(n, variant, r0=r0, rn=rn).ratios
    print(f"{variant:>16}: " + " ".join(f"{r:6.3f}" for r in ratios))

# --- solving the last ratio for a 50% global target ----------------------------
r0 = 0.25
ratios = np.array(build_schedule(n, "log_increase", r0=r0, global_target=0.5).ratios)
rn = ratios[-1]
print(f"\nlog curve hitting a 50% mean with r0={r0}: rn={rn:.4f}")
print("  ratios:", " ".join(f"{r:.3f}" for r in ratios))
print(f"  mean:   {ratios.mean():.6f}")

# parameter-weighted layers (say the last two layers are twice as wide)
weights = np.array([1.0] * 6 + [2.0, 2.0])
ratios_w = build_schedule(n, "log_increase", r0=r0, global_target=0.5,
                          layer_param_weights=weights).ratios
rn_w = ratios_w[-1]
print(f"with heavier deep layers the solved endpoint drops: rn={rn_w:.4f} "
      f"(weighted mean {np.average(ratios_w, weights=weights):.6f})")

# --- build_schedule + mirroring -------------------------------------------------
inc = build_schedule(n, "log_increase", r0=0.25, global_target=0.5)
dec = build_schedule(n, "log_decrease", r0=inc.ratios[-1], rn=inc.ratios[0])
print(f"\nbuild_schedule variant={inc.variant}, ratios mean {np.mean(inc.ratios):.4f}")
print(f"mirrored counterpart variant={dec.variant}, the same ratios in reverse "
      f"order: {dec.ratios == inc.ratios[::-1]}, mean {np.mean(dec.ratios):.4f}")

# --- ratios to integer unit counts ----------------------------------------------
print("\ninteger removal counts at ratio 0.33:")
for units in (4, 32, 11008):
    print(f"  {units:>6} units -> prune {counts_from_ratio(0.33, units)}")
print("at least one unit always survives:",
      counts_from_ratio(0.99, 4), "of 4 pruned at ratio 0.99")
