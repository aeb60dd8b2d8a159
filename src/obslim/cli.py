"""Command-line front end: gen-toy, prune, verify, report.

Exit codes: 0 success, 1 usage error, 2 numerical or validation failure.
"""

import argparse
import contextlib
import os
import re
import sys
import time
from dataclasses import fields

import numpy as np

from .errors import ObslimError
from .pipeline import (
    PruneConfig,
    PruneReport,
    ToyModelSpec,
    gen_toy,
    is_finite_real,
    prune_model,
    verify_report,
)
from .schedule import build_schedule, counts_from_ratio
from .tensorstore import (
    ModelManifest,
    read_tensor_file,
    read_tensor_header,
    validate_manifest,
    write_tensor_file,
)

VARIANT_FLAGS = {
    "log-inc": "log_increase",
    "lin-inc": "linear_increase",
    "uniform": "uniform",
    "log-dec": "log_decrease",
    "lin-dec": "linear_decrease",
}


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; this CLI uses 1.

    No option starts like a negative number, so ``-1e-3`` and ``-inf`` are
    values, not the option names argparse's own rule takes them for.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="obslim", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    gen = sub.add_parser("gen-toy", help="generate a deterministic toy model + calibration set")
    gen.add_argument("--out", required=True, help="output directory")
    for flag, name in (("--seed", "seed"), ("--layers", "n_layers"), ("--d-model", "d_model"),
                       ("--heads", "n_head"), ("--d-ff", "d_ff"),
                       ("--batches", "n_calib_batches"), ("--tokens", "tokens_per_batch")):
        gen.add_argument(flag, type=int, dest=name, metavar="N",
                         help=f"default {getattr(ToyModelSpec, name)}")

    prune = sub.add_parser("prune", help="prune a model at scheduled per-layer ratios")
    prune.add_argument("--model", required=True)
    prune.add_argument("--manifest", required=True)
    prune.add_argument("--calib", required=True)
    prune.add_argument("--out", required=True, help="output directory")
    prune.add_argument("--ratio-first", type=float, help="default 0")
    prune.add_argument("--ratio-last", type=float, help="default: --ratio-first")
    prune.add_argument("--global-target", type=float, help="solves --ratio-last")
    prune.add_argument("--variant", choices=sorted(VARIANT_FLAGS), default="log-inc",
                       help="default %(default)s")
    for flag, name, kind in (("--damping", "damping", float),
                             ("--group-start", "group_start", int),
                             ("--group-min", "group_min", int)):
        prune.add_argument(flag, type=kind, default=getattr(PruneConfig, name),
                           help="default %(default)s")

    ver = sub.add_parser("verify", help="re-check the invariants of a written report")
    ver.add_argument("--report", required=True)
    ver.add_argument("--manifest", help="pruned manifest to cross-check")
    ver.add_argument("--model", help="pruned model to cross-check")

    rep = sub.add_parser("report", help="print a report.json as a per-layer table "
                                        "(prune writes the same rows to report.csv)")
    rep.add_argument("--report", required=True)
    return parser


def _check_out_dir(path, outputs) -> None:
    if os.path.exists(path) and not os.path.isdir(path):
        raise ObslimError(f"--out {path} exists and is not a directory")
    for name in outputs:
        if os.path.isdir(os.path.join(path, name)):
            raise ObslimError(f"--out {path}: {name} is a directory, not a file to replace")


def _cmd_gen_toy(args) -> int:
    given = {f.name: getattr(args, f.name) for f in fields(ToyModelSpec)}
    spec = ToyModelSpec(**{name: val for name, val in given.items() if val is not None})
    _check_out_dir(args.out, ("model.obt", "calib.obt", "manifest.json"))
    memory = _physical_memory()
    if spec.nbytes > memory:
        raise ObslimError(f"the toy model and calibration set need {spec.nbytes / 2**30:.3g} "
                          f"GiB, more than the {memory / 2**30:.3g} GiB of physical memory")
    tensors, manifest, calib = gen_toy(spec)
    os.makedirs(args.out, exist_ok=True)
    model_path = os.path.join(args.out, "model.obt")
    calib_path = os.path.join(args.out, "calib.obt")
    manifest_path = os.path.join(args.out, "manifest.json")
    write_tensor_file(tensors, model_path)
    write_tensor_file({f"calib.{i}": x for i, x in enumerate(calib)}, calib_path)
    manifest.save(manifest_path)
    print(f"wrote {model_path} ({len(tensors)} tensors), {manifest_path}, "
          f"{calib_path} ({len(calib)} batches)")
    return 0


def _layer_param_weights(manifest: ModelManifest, tensors: dict) -> np.ndarray:
    """Prunable parameter count per layer (anchor plus coupled tensors, or their headers)."""
    return np.asarray([sum(tensors[name].size for name in entry.tensor_names())
                       for entry in manifest.layers], dtype=np.float64)


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_hessians_fit(manifest: ModelManifest, header: dict, ratios) -> None:
    """Refuse a sublayer that removes something and whose n x n float64 Hessian
    (``8 * n**2`` bytes) exceeds physical memory. A sublayer that removes
    nothing builds no Hessian."""
    memory = _physical_memory()
    for idx, (entry, ratio) in enumerate(zip(manifest.layers, ratios)):
        n_ff = header[entry.ffn_down].shape[1]
        for sublayer, anchor, units in (("attention", entry.attn_out, entry.n_head),
                                        ("FFN", entry.ffn_down, n_ff)):
            n = header[anchor].shape[1]
            if counts_from_ratio(ratio, units) and 8 * n * n > memory:
                raise ObslimError(
                    f"layer {idx} ({sublayer}): its {n} x {n} Hessian needs "
                    f"{8 * n * n / 2**30:.3g} GiB, more than the {memory / 2**30:.3g} GiB "
                    f"of physical memory"
                )


def _cmd_prune(args) -> int:
    for key in ("ratio_first", "ratio_last", "global_target"):  # argparse's float takes nan
        val = getattr(args, key)
        if val is not None and not is_finite_real(val):
            raise ObslimError(f"{key} must be a finite number, got {val!r}")
    header = read_tensor_header(args.model)
    manifest = ModelManifest.load(args.manifest)
    validate_manifest(manifest, header)
    # the schedule needs only the shapes, so a bad setting costs no payload read
    sched = build_schedule(
        manifest.n_layers,
        VARIANT_FLAGS[args.variant],
        r0=args.ratio_first,
        rn=args.ratio_last,
        global_target=args.global_target,
        layer_param_weights=_layer_param_weights(manifest, header),
    )
    config = PruneConfig(damping=args.damping, group_start=args.group_start,
                         group_min=args.group_min)
    _check_out_dir(args.out, ("model.obt", "manifest.json", "report.json", "report.csv"))
    _check_hessians_fit(manifest, header, sched.ratios)
    tensors = read_tensor_file(args.model)
    calib = list(read_tensor_file(args.calib).values())
    created = not os.path.isdir(args.out)
    os.makedirs(args.out, exist_ok=True)
    t_start = time.perf_counter()
    try:
        pruned, pruned_manifest, report = prune_model(
            tensors, manifest, calib, sched, config, out=os.path.join(args.out, "model.obt"))
    except BaseException:
        if created:  # a failed run leaves no output, not even the directory
            with contextlib.suppress(OSError):
                os.rmdir(args.out)
        raise
    elapsed = time.perf_counter() - t_start

    pruned_manifest.save(os.path.join(args.out, "manifest.json"))
    report.save(os.path.join(args.out, "report.json"))
    with open(os.path.join(args.out, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    total_params = sum(entry.size for entry in header.values())
    kept_params = sum(a.size for a in pruned.values())
    print(_format_report(report))
    print(f"params {total_params} -> {kept_params} "
          f"({1.0 - kept_params / total_params:.1%} removed); "
          f"wall clock {elapsed:.2f}s; outputs in {args.out}")
    return 0


def _format_report(report: PruneReport) -> str:
    lines = [
        f"variant: {report.variant}",
        f"{'layer':>5} {'ratio':>7} {'heads-':>6} {'chans-':>6} "
        f"{'sum_step_error':>15} {'output_sq_error':>16}",
    ]
    for row in report.layers:
        lines.append(
            f"{row.layer:>5} {row.ratio:>7.4f} {row.heads_removed:>6} "
            f"{row.channels_removed:>6} {row.sum_step_error:>15.6g} "
            f"{row.output_sq_error:>16.6g}"
        )
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    if args.model and not args.manifest:
        raise ObslimError("verify --model needs --manifest: the model is checked against it")
    report = PruneReport.load(args.report)
    manifest = ModelManifest.load(args.manifest) if args.manifest else None
    tensors = read_tensor_file(args.model) if args.model else None
    problems = verify_report(report, manifest, tensors)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 2
    print(f"report OK: {len(report.layers)} layers, variant {report.variant}")
    return 0


def _cmd_report(args) -> int:
    print(_format_report(PruneReport.load(args.report)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handler = {
        "gen-toy": _cmd_gen_toy,
        "prune": _cmd_prune,
        "verify": _cmd_verify,
        "report": _cmd_report,
    }[args.command]
    try:
        return handler(args)
    except (ObslimError, np.linalg.LinAlgError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
