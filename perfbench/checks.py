"""Correctness gates applied to every benchmarked `obslim prune` job.

A job passes only if ``obslim verify`` accepts its outputs, its reports are
byte-identical to those of the run's first job on the same inputs, and the
compensated weights of the checked layers equal the closed-form
least-squares optimum for the kept columns. The oracle Hessians are rebuilt here from the raw calibration
batches with public functions only, independently of ``prune_model``.
"""

import contextlib
import io
from pathlib import Path

import numpy as np

from obslim import cli
from obslim.calib import HessianAccumulator
from obslim.obs_core import least_squares_oracle
from obslim.pipeline import LayerWeights, PruneReport, forward_layer
from obslim.tensorstore import ModelManifest, read_tensor_file

ORACLE_RTOL = 1e-8


def input_paths(data_dir: Path) -> dict:
    """The files ``obslim gen-toy --out data_dir`` writes."""
    return {
        "model": data_dir / "model.obt",
        "manifest": data_dir / "manifest.json",
        "calib": data_dir / "calib.obt",
    }


def load_inputs(data_dir: Path):
    """``(tensors, manifest, calib batches)`` of one generated input set."""
    paths = input_paths(data_dir)
    return (
        read_tensor_file(paths["model"]),
        ModelManifest.load(paths["manifest"]),
        list(read_tensor_file(paths["calib"]).values()),
    )


def _hessian(features, damping: float):
    acc = HessianAccumulator(features[0].shape[0])
    for x in features:
        acc.accumulate(x)
    return acc.finalize(damping)


def _rel_dev(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def oracle_problems(data_dir: Path, out_dir: Path, report: PruneReport) -> list:
    """Compare pruned ``wo`` and ``w_down`` with ``least_squares_oracle``.

    Checks layer 0 and every following layer up to and including the first
    one that removes heads or channels (with the default schedules layer 0
    removes nothing). Each checked layer's input is the calibration stream
    propagated through the already-pruned layers before it, as in
    ``calib_mode="pruned"``.
    """
    tensors, manifest, calib = load_inputs(data_dir)
    pruned = read_tensor_file(out_dir / "model.obt")
    pruned_manifest = ModelManifest.load(out_dir / "manifest.json")
    damping = float(report.config["damping"])
    problems = []
    acts = [np.asarray(x, dtype=np.float64) for x in calib]
    for row, entry, new_entry in zip(report.layers, manifest.layers, pruned_manifest.layers):
        orig_lw = LayerWeights.from_tensors(entry, tensors)
        new_lw = LayerWeights.from_tensors(new_entry, pruned)
        kept_cols = np.concatenate(
            [np.arange(h * entry.d_head, (h + 1) * entry.d_head) for h in row.kept_heads]
        ).astype(np.intp)
        h_attn = _hessian([forward_layer(orig_lw, x, collect=True)[1] for x in acts], damping)
        want = least_squares_oracle(orig_lw.wo, h_attn, kept_cols)
        dev = _rel_dev(new_lw.wo, want)
        if not dev <= ORACLE_RTOL:
            problems.append(f"layer {row.layer}: wo deviates {dev:.3e} from least_squares_oracle")

        mixed = LayerWeights(
            wq=new_lw.wq, wk=new_lw.wk, wv=new_lw.wv, wo=new_lw.wo,
            w_up=orig_lw.w_up, w_gate=orig_lw.w_gate, w_down=orig_lw.w_down,
            n_head=new_lw.n_head, d_head=new_lw.d_head,
        )
        h_ffn = _hessian([forward_layer(mixed, x, collect=True)[2] for x in acts], damping)
        want = least_squares_oracle(orig_lw.w_down, h_ffn, row.kept_channels)
        dev = _rel_dev(new_lw.w_down, want)
        if not dev <= ORACLE_RTOL:
            problems.append(
                f"layer {row.layer}: w_down deviates {dev:.3e} from least_squares_oracle"
            )
        if row.heads_removed or row.channels_removed:
            break
        acts = [forward_layer(new_lw, x) for x in acts]
    return problems


def verify_exit_code(out_dir: Path) -> int:
    """Exit code of ``obslim verify`` on the job's outputs."""
    argv = [
        "verify",
        "--report", str(out_dir / "report.json"),
        "--manifest", str(out_dir / "manifest.json"),
        "--model", str(out_dir / "model.obt"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def job_problems(data_dir: Path, out_dir: Path, reference: dict | None) -> tuple:
    """Run every gate on one finished job; returns ``(problems, report_bytes)``.

    ``reference`` holds the report bytes of the run's first passing job on
    the same inputs, or None when there is none yet.
    """
    report_bytes = {
        name: (out_dir / name).read_bytes() for name in ("report.json", "report.csv")
    }
    problems = []
    code = verify_exit_code(out_dir)
    if code != 0:
        problems.append(f"obslim verify exited {code}")
    if reference is not None:
        for name, data in report_bytes.items():
            if data != reference[name]:
                problems.append(f"{name} differs from the first job's")
    report = PruneReport.load(out_dir / "report.json")
    problems.extend(oracle_problems(data_dir, out_dir, report))
    return problems, report_bytes
