"""Workloads, job loop, gates and metrics of the `obslim prune` benchmark.

Imported by ``run.py`` once the BLAS thread count is pinned and ``src/`` is
on the import path; see that file and README.md.
"""

import contextlib
import ctypes
import gc
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

from checks import input_paths, job_problems, load_inputs
from obslim import cli
from obslim.pipeline import PruneReport, forward_model
from spans import Tracer

WORK = Path(__file__).resolve().parent / "_work"

# Untraced runs generate this many input sets per workload. Timed jobs
# cycle through them: setup_s is the median gen-toy time and the error
# metrics the mean over the sets. The error of a toy model varies by
# 10-25 % between seeds, and averaging over sets cuts that spread in half.
INPUT_SETS = 4
MIN_TRACE_PAIRS = 2

# gen-toy flags and prune flags of each workload; README.md says why.
WORKLOADS = {
    "ffn_wide": (
        ["--layers", "4", "--d-model", "64", "--heads", "4", "--d-ff", "512",
         "--batches", "4", "--tokens", "256"],
        ["--global-target", "0.4"],
    ),
    "heads_many": (
        ["--layers", "6", "--d-model", "512", "--heads", "64", "--d-ff", "128",
         "--batches", "8", "--tokens", "64"],
        ["--global-target", "0.4", "--group-start", "1", "--group-min", "1"],
    ),
    "long_seq": (
        ["--layers", "6", "--d-model", "64", "--heads", "8", "--d-ff", "128",
         "--batches", "4", "--tokens", "512"],
        ["--global-target", "0.3"],
    ),
}

END_TO_END_UNITS = {
    "prune_s": "s",
    "setup_s": "s",
    "peak_heap_mb": "MB",
    "out_rel_err": "1",
    "step_err_sum": "1",
}

# Per-layer metric -> (unit, how to read it from one traced job's profile).
# Times are inclusive span times summed over the job; "calls" count spans.
PER_LAYER = {
    "ffn_pruner.prune_channels_s": ("s", ("incl", "ffn_pruner.prune_channels")),
    "ffn_pruner.cols_scored": ("count", ("count", "obs_core.cols_scored")),
    "ffn_pruner.removed_per_scored": (
        "1", ("ratio", "ffn_pruner.channels_removed", "obs_core.cols_scored")),
    "obs_core.prune_column_s": ("s", ("incl", "obs_core.prune_column")),
    "obs_core.prune_column_calls": ("count", ("calls", "obs_core.prune_column")),
    "obs_core.column_errors_s": ("s", ("incl", "obs_core.column_errors")),
    "linalg.remove_update_s": ("s", ("incl", "linalg.remove_update")),
    "linalg.remove_update_calls": ("count", ("calls", "linalg.remove_update")),
    "linalg.remove_update_mb": ("MB", ("mb", "linalg.remove_update_bytes")),
    "linalg.spd_inits": ("count", ("calls", "linalg.spd_init")),
    "linalg.spd_init_s": ("s", ("incl", "linalg.spd_init")),
    "linalg.invert_spd_s": ("s", ("incl", "linalg.invert_spd")),
    "linalg.invert_spd_calls": ("count", ("calls", "linalg.invert_spd")),
    "linalg.cholesky_s": ("s", ("incl", "linalg.cholesky_lower", "linalg.grouped_cholesky")),
    "linalg.cholesky_calls": (
        "count", ("calls", "linalg.cholesky_lower", "linalg.grouped_cholesky")),
    "head_pruner.prune_heads_s": ("s", ("incl", "head_pruner.prune_heads")),
    "head_pruner.head_errors_s": ("s", ("incl", "head_pruner.head_errors")),
    "head_pruner.rounds": ("count", ("count", "head_pruner.rounds")),
    "head_pruner.heads_scored": ("count", ("count", "head_pruner.heads_scored")),
    "head_pruner.removed_per_scored": (
        "1", ("ratio", "head_pruner.heads_removed", "head_pruner.heads_scored")),
    "calib.accumulate_s": ("s", ("incl", "calib.accumulate")),
    "calib.accumulate_calls": ("count", ("calls", "calib.accumulate")),
    "calib.finalize_s": ("s", ("incl", "calib.finalize")),
    "pipeline.prune_model_s": ("s", ("incl", "pipeline.prune_model")),
    "pipeline.forward_layer_s": ("s", ("incl", "pipeline.forward_layer")),
    "pipeline.forward_layer_calls": ("count", ("calls", "pipeline.forward_layer")),
    "tensorstore.read_s": ("s", ("incl", "tensorstore.read_tensor_file")),
    "tensorstore.write_s": ("s", ("incl", "tensorstore.write_tensor_file")),
    "tensorstore.mb_read": ("MB", ("mb", "tensorstore.bytes_read")),
    "tensorstore.mb_written": ("MB", ("mb", "tensorstore.bytes_written")),
    "schedule.build_s": ("s", ("incl", "schedule.build_schedule")),
}
# Self time of every layer: job time whose innermost span is one of its functions.
LAYERS = ("cli", "pipeline", "head_pruner", "ffn_pruner", "obs_core", "linalg",
          "calib", "tensorstore", "schedule")
PER_LAYER.update({f"{layer}.self_s": ("s", ("self", layer)) for layer in LAYERS})
PER_LAYER.update({
    "trace.prune_s": ("s", None),
    "trace.untraced_prune_s": ("s", None),
    "trace.overhead_ratio": ("1", None),
})


def cache_size(level: int):
    """Unified L2/L3 size in bytes from glibc's sysconf, or None."""
    names = {2: 191, 3: 194}  # _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    size = libc.sysconf(names[level])
    return size if size > 0 else None


def environment(bench: "Bench", blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    tensors, manifest, calib = load_inputs(bench.sets[0])
    entry = manifest.layers[0]
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "gen_toy_seeds": bench.gen_seeds,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l2_bytes": cache_size(2),
        "l3_bytes": cache_size(3),
        "model_mb": input_paths(bench.sets[0])["model"].stat().st_size / 1e6,
        "calib_tokens": sum(x.shape[1] for x in calib),
        "layers": manifest.n_layers,
        "attn_hessian_dim": entry.n_head * entry.d_head,
        "ffn_hessian_dim": tensors[entry.ffn_down].shape[1],
        "prune_args": WORKLOADS[bench.workload][1],
    }


class Bench:
    """One workload's generated input sets, its jobs and their gate results.

    Input set ``j`` is ``gen-toy --seed INPUT_SETS * seed + j``, so runs
    with different seeds share no inputs.
    """

    def __init__(self, workload: str, seed: int, work_dir: Path, n_sets: int):
        self.workload = workload
        self.seed = seed
        self.gen_seeds = [INPUT_SETS * seed + j for j in range(n_sets)]
        self.sets = [work_dir / f"data{j}" for j in range(n_sets)]
        self.out = work_dir / "out"
        self.attempted = 0
        self.failed = 0
        self.job_s = []  # every job in order, None where it failed
        self.reference = {}  # input set -> report bytes of its first passing job

    def setup(self) -> float:
        """Generate every input set; the median gen-toy wall time."""
        times = []
        for gen_seed, data_dir in zip(self.gen_seeds, self.sets):
            argv = ["gen-toy", "--out", str(data_dir), "--seed", str(gen_seed)]
            argv += WORKLOADS[self.workload][0]
            start = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            times.append(time.perf_counter() - start)
            if code != 0:
                raise SystemExit(f"error: gen-toy exited {code}")
        return statistics.median(times)

    def job(self, j: int, wrap=contextlib.nullcontext) -> float | None:
        """Run one gated prune job on input set ``j``.

        Returns its wall time, or None if it failed. ``wrap`` is entered
        just before the timed call and left after it.
        """
        paths = input_paths(self.sets[j])
        argv = ["prune", "--model", str(paths["model"]), "--manifest", str(paths["manifest"]),
                "--calib", str(paths["calib"]), "--out", str(self.out)]
        argv += WORKLOADS[self.workload][1]
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        try:
            with wrap(), contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                elapsed = time.perf_counter() - start
            problems = [f"prune exited {code}"] if code != 0 else []
            if not problems:
                problems, report_bytes = job_problems(
                    self.sets[j], self.out, self.reference.get(j))
                if not problems:
                    self.reference.setdefault(j, report_bytes)
        except Exception:  # the loop keeps going; the job counts as failed
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"job {self.attempted} FAILED: {problem}", file=sys.stderr)
            elapsed = None
        self.job_s.append(elapsed)
        return elapsed


def closed_loop(budget_s: float, min_calls: int, run_one) -> list:
    """Call ``run_one`` until another call would overrun ``budget_s``.

    The estimate of the next call is the median of the calls so far, gates
    included; at least ``min_calls`` calls are made. Returns their results.
    """
    results = []
    spent = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(run_one())
        spent.append(time.perf_counter() - before)
        elapsed = time.perf_counter() - start
        if len(results) >= min_calls and elapsed + statistics.median(spent) > budget_s:
            return results


def passing_median(times: list, what: str) -> float:
    """Median over the jobs that passed every gate (failed jobs are None)."""
    ok = [t for t in times if t is not None]
    if not ok:
        raise SystemExit(f"error: every {what} job failed its gates")
    return statistics.median(ok)


def end_to_end(bench: Bench, budget_s: float) -> dict:
    setup_s = bench.setup()
    # The heap pass runs under tracemalloc, which slows it: it is not timed.
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        bench.job(0)
        peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
    # Starting again at set 0 compares its first timed job with the heap
    # pass, so every run checks determinism; the minimum of INPUT_SETS
    # timed jobs gives every set a report.
    order = itertools.cycle(range(INPUT_SETS))
    times = closed_loop(budget_s, INPUT_SETS, lambda: bench.job(next(order)))
    prune_s = passing_median(times, "timed")
    ok = [t for t in times if t is not None]
    print(f"prune_s samples: n={len(ok)} min={min(ok):.4f} max={max(ok):.4f}")

    out_rel, step = [], []
    for j, ref in sorted(bench.reference.items()):
        report = PruneReport.from_dict(json.loads(ref["report.json"]))
        tensors, manifest, calib = load_inputs(bench.sets[j])
        energy = sum(float((forward_model(tensors, manifest, x) ** 2).sum()) for x in calib)
        out_rel.append(report.layers[-1].output_sq_error / energy)
        step.append(float(sum(row.sum_step_error for row in report.layers)))
    return {
        "prune_s": prune_s,
        "setup_s": setup_s,
        "peak_heap_mb": peak_mb,
        "out_rel_err": statistics.fmean(out_rel),
        "step_err_sum": statistics.fmean(step),
    }


def _job_metric(spec, prof: dict) -> float:
    kind, *names = spec
    if kind == "incl":
        return sum(prof["incl_s"].get(n, 0.0) for n in names)
    if kind == "calls":
        return float(sum(prof["calls"].get(n, 0) for n in names))
    if kind == "count":
        return float(prof["counts"].get(names[0], 0))
    if kind == "mb":
        return prof["counts"].get(names[0], 0) / 1e6
    if kind == "self":
        return prof["self_s"].get(names[0], 0.0)
    num, den = (prof["counts"].get(n, 0) for n in names)  # ratio
    return num / den if den else 0.0


def traced(bench: Bench, budget_s: float, trace_path: Path) -> dict:
    tracer = Tracer()
    runs = {"untraced": [], "traced": []}
    job_ids = []

    def traced_job():
        run_id = bench.attempted + 1
        t = bench.job(0, wrap=lambda: tracer.recording(run_id))
        if t is not None:
            job_ids.append(run_id)
        return t

    def pair():
        runs["untraced"].append(bench.job(0))
        runs["traced"].append(traced_job())

    closed_loop(budget_s, MIN_TRACE_PAIRS, pair)
    trace_path.write_text(json.dumps(tracer.dump()))

    traced_s = passing_median(runs["traced"], "traced")
    untraced_s = passing_median(runs["untraced"], "untraced")
    profiles = [tracer.job_profile(i) for i in job_ids]
    metrics = {
        name: statistics.median(_job_metric(spec, p) for p in profiles)
        for name, (_, spec) in PER_LAYER.items()
        if spec is not None
    }
    metrics["trace.prune_s"] = traced_s
    metrics["trace.untraced_prune_s"] = untraced_s
    metrics["trace.overhead_ratio"] = metrics["trace.prune_s"] / metrics["trace.untraced_prune_s"]
    print_layer_table(bench.workload, metrics)
    return metrics


# What the traced run must show for each workload to serve its purpose.
PURPOSE = {
    "ffn_wide": ("ffn_pruner.prune_channels_s > 50% of pipeline.prune_model_s",
                 lambda m: m["ffn_pruner.prune_channels_s"] > 0.5 * m["pipeline.prune_model_s"]),
    "heads_many": ("head_pruner.prune_heads_s is the largest child of prune_model",
                   lambda m: m["head_pruner.prune_heads_s"] > max(
                       m["ffn_pruner.prune_channels_s"], m["pipeline.forward_layer_s"],
                       m["calib.accumulate_s"] + m["calib.finalize_s"])),
    "long_seq": ("pipeline.self_s > 50% and pruning kernels < 10% of prune_model",
                 lambda m: m["pipeline.self_s"] > 0.5 * m["pipeline.prune_model_s"]
                 and kernel_s(m) < 0.1 * m["pipeline.prune_model_s"]),
}


def kernel_s(m: dict) -> float:
    return m["head_pruner.prune_heads_s"] + m["ffn_pruner.prune_channels_s"]


def print_layer_table(workload: str, m: dict) -> None:
    job = m["trace.prune_s"]
    model = m["pipeline.prune_model_s"]
    print(f"{'layer':<12} {'self_s':>9} {'% of job':>8}")
    for layer in LAYERS:
        s = m[f"{layer}.self_s"]
        print(f"{layer:<12} {s:>9.4f} {100 * s / job:>7.1f}%")
    print(f"traced job {job:.4f}s, untraced {m['trace.untraced_prune_s']:.4f}s, "
          f"overhead x{m['trace.overhead_ratio']:.3f}")
    children = {
        "head_pruner.prune_heads": m["head_pruner.prune_heads_s"],
        "ffn_pruner.prune_channels": m["ffn_pruner.prune_channels_s"],
        "pipeline.forward_layer": m["pipeline.forward_layer_s"],
        "calib": m["calib.accumulate_s"] + m["calib.finalize_s"],
        "pipeline.self": m["pipeline.self_s"],
        "pruning kernels": kernel_s(m),
    }
    print("share of prune_model: "
          + ", ".join(f"{k} {100 * v / model:.1f}%" for k, v in children.items()))
    text, holds = PURPOSE[workload]
    print(f"purpose: {text}: {'yes' if holds(m) else 'NO'}")


def main(workload: str, seed: int, seconds: float, trace: int, blas_threads: int) -> int:
    if workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    work_dir = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    try:
        bench = Bench(workload, seed, work_dir, 1 if trace else INPUT_SETS)
        if trace:
            bench.setup()
            metrics = traced(bench, seconds, WORK / f"trace-{tag}.json")
            units = {k: unit for k, (unit, _) in PER_LAYER.items()}
        else:
            metrics = end_to_end(bench, seconds)
            units = END_TO_END_UNITS
        env = environment(bench, blas_threads)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print("env " + json.dumps(env))
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(f"ops_failed/ops_attempted {bench.failed}/{bench.attempted}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"env": env, "job_s": bench.job_s, **result}
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0
