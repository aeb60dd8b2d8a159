"""Attention-head pruning: per-block factor estimation and the greedy loop.

A head can only be removed whole, so its error must be judged for all of
its columns jointly. Factoring each head's diagonal block of the inverse
Hessian gives per-column pivots as if that head were eliminated first,
which is far more faithful than reading raw inverse-Hessian diagonals,
especially when features within a head are correlated.

Run: python demos/03_head_pruning.py
"""

import numpy as np

from obslim import (
    HeadLayout,
    SpdMatrix,
    block_errors,
    invert_spd,
    mask_residual,
    prune_heads,
)

rng = np.random.default_rng(7)


def correlated_instance(rho):
    """4 heads x 3 columns; rho controls within-head feature correlation."""
    layout = HeadLayout(4, 3)
    n, m = layout.n_cols, 24 * layout.n_cols
    x = np.sqrt(1 - rho) * rng.normal(size=(n, m))
    for head in range(4):
        x[list(layout.col_range(head))] += np.sqrt(rho) * rng.normal(size=m)
    h = SpdMatrix(2.0 * x @ x.T)
    w = rng.normal(size=(10, n))
    for head in range(4):
        w[:, layout.col_range(head)] *= np.exp(0.8 * rng.normal())
    return w, h, layout


def exact_residuals(w, h, layout):
    out = []
    for head in range(layout.n_head):
        kept = np.setdiff1d(np.arange(layout.n_cols), list(layout.col_range(head)))
        out.append(mask_residual(w, h, kept))
    return np.array(out)


# --- one instance in detail --------------------------------------------------
w, h, layout = correlated_instance(rho=0.5)
h_inv = invert_spd(h)
est = block_errors(w, h_inv, layout.d_head)
raw = ((w * w).sum(axis=0) / h_inv.diagonal()).reshape(4, 3).sum(axis=1)
exact = exact_residuals(w, h, layout)

print("head   block-factor est   raw-diag est       exact")
for head in range(4):
    print(f"  {head}    {est[head]:14.2f} {raw[head]:14.2f} {exact[head]:12.2f}")
print(f"block-factor argmin: {np.argmin(est)}, raw argmin: {np.argmin(raw)}, "
      f"exact argmin: {np.argmin(exact)}")

# --- estimator quality over many correlated instances ------------------------
n_trials = 300
gc_hits = raw_hits = 0
gc_no_worse = 0
for _ in range(n_trials):
    w, h, layout = correlated_instance(rho=float(rng.uniform(0.3, 0.7)))
    h_inv = invert_spd(h)
    exact = exact_residuals(w, h, layout)
    sel_gc = int(np.argmin(block_errors(w, h_inv, layout.d_head)))
    sel_raw = int(np.argmin(
        ((w * w).sum(axis=0) / h_inv.diagonal()).reshape(4, 3).sum(axis=1)))
    best = int(np.argmin(exact))
    gc_hits += sel_gc == best
    raw_hits += sel_raw == best
    gc_no_worse += exact[sel_gc] <= exact[sel_raw] + 1e-12
print(f"\nover {n_trials} correlated instances:")
print(f"  block-factor estimate finds the exact best head: {gc_hits}/{n_trials}")
print(f"  raw-diagonal estimate finds the exact best head: {raw_hits}/{n_trials}")
print(f"  block-factor selection no worse than raw:        {gc_no_worse}/{n_trials}")

# --- the full greedy loop -----------------------------------------------------
w, h, layout = correlated_instance(rho=0.4)
print("\nround-0 estimated head errors:")
print(np.array_str(block_errors(w, invert_spd(h), layout.d_head), precision=1))
res = prune_heads(w, invert_spd(h), layout, n_prune=2)
print(f"two greedy rounds kept heads {res.kept_heads}")
greedy = mask_residual(w, h, res.kept_columns)
best2 = min(
    mask_residual(w, h, np.setdiff1d(
        np.arange(layout.n_cols),
        list(layout.col_range(h1)) + list(layout.col_range(h2))))
    for h1 in range(4) for h2 in range(h1 + 1, 4)
)
print(f"greedy residual {greedy:.2f} vs exhaustive 2-head optimum {best2:.2f} "
      f"(ratio {greedy / best2:.4f})")
