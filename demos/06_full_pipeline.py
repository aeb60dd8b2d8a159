"""End-to-end pruning of a toy transformer, with the error-accumulation study.

Generates a deterministic 8-layer toy model, prunes it layer by layer at a
50% global target under different ratio curves, and reproduces the two
study-style diagnostics at desk scale: errors injected early compound with
depth, and rising ratio curves beat flat and falling ones.

Run: python demos/06_full_pipeline.py
"""

import os
import tempfile
import time

import numpy as np

from obslim import (
    PruneConfig,
    PruneSchedule,
    ToyModelSpec,
    build_schedule,
    gen_toy,
    prune_model,
)

config = PruneConfig(group_start=16, group_min=2)
spec = ToyModelSpec()  # 8 layers, d_model 32, 4 heads, d_ff 64
# prune_model writes each pruned model to a file; these runs keep it in a scratch directory
scratch = tempfile.TemporaryDirectory()
out = os.path.join(scratch.name, "model.obt")

# --- error accumulation: prune only the first layer ----------------------------
print("pruning ONLY layer 0 at 25/50/75%, per-layer output error downstream")
print("(mean over 5 model seeds):")
curves = {}
for pct in (25, 50, 75):
    acc = np.zeros(spec.n_layers)
    for seed in range(5):
        tensors, manifest, calib = gen_toy(ToyModelSpec(seed=seed))
        ratios = (pct / 100.0,) + (0.0,) * (spec.n_layers - 1)
        sched = PruneSchedule(ratios=ratios, variant="custom")
        _, _, rep = prune_model(tensors, manifest, calib, sched, config, out=out)
        acc += np.array([row.output_sq_error for row in rep.layers])
    curves[pct] = acc / 5
print("layer:      " + " ".join(f"{i:>8}" for i in range(spec.n_layers)))
for pct, curve in curves.items():
    print(f"first={pct}%: " + " ".join(f"{e:8.1f}" for e in curve))
print("errors grow with depth, and grow faster the harder layer 0 was pruned.\n")

# --- schedule variants at a matched 50% global target ---------------------------
print("full prune at 50% global target, five ratio curves, final-layer error")
print("(mean over 5 model seeds):")
results = {}
for seed in range(5):
    tensors, manifest, calib = gen_toy(ToyModelSpec(seed=100 + seed))
    log_inc = build_schedule(spec.n_layers, "log_increase", r0=0.25, global_target=0.5)
    lin_inc = build_schedule(spec.n_layers, "linear_increase", r0=0.25, global_target=0.5)
    scheds = {
        "log_increase": log_inc,
        "linear_increase": lin_inc,
        "uniform": build_schedule(spec.n_layers, "uniform", global_target=0.5),
        # each falling curve mirrors its rising one: the same ratios in reverse order
        "log_decrease": build_schedule(spec.n_layers, "log_decrease",
                                       r0=log_inc.ratios[-1], rn=log_inc.ratios[0]),
        "linear_decrease": build_schedule(spec.n_layers, "linear_decrease",
                                          r0=lin_inc.ratios[-1], rn=lin_inc.ratios[0]),
    }
    for name, sched in scheds.items():
        _, _, rep = prune_model(tensors, manifest, calib, sched, config, out=out)
        results.setdefault(name, []).append(rep.layers[-1].output_sq_error)
for name, vals in results.items():
    print(f"  {name:>16}: {np.mean(vals):10.1f}")
print("rising curves < uniform < falling curves, the accumulation story again.\n")

# --- one run in full detail ------------------------------------------------------
tensors, manifest, calib = gen_toy(spec)
sched = build_schedule(spec.n_layers, "log_increase", r0=0.25, global_target=0.5)
t_start = time.perf_counter()
pruned, pmanifest, report = prune_model(tensors, manifest, calib, sched, config, out=out)
elapsed = time.perf_counter() - t_start
total = sum(a.size for a in tensors.values())
kept = sum(a.size for a in pruned.values())
print(f"default toy model pruned: {total} -> {kept} parameters "
      f"({1 - kept / total:.1%} removed) in {elapsed:.2f}s")
print(f"{'layer':>5} {'ratio':>7} {'heads-':>6} {'chans-':>6} "
      f"{'step error':>12} {'output error':>13}")
for row in report.layers:
    print(f"{row.layer:>5} {row.ratio:>7.4f} {row.heads_removed:>6} "
          f"{row.channels_removed:>6} {row.sum_step_error:>12.2f} "
          f"{row.output_sq_error:>13.2f}")
print("\nper-layer CSV:")
print(report.to_csv())
scratch.cleanup()
