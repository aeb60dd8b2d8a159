"""Structured pruning of transformer weight matrices with exact second-order compensation.

The package removes whole attention heads and FFN channels from dense
weight matrices, compensating the surviving weights in closed form from a
calibration Hessian so the layer's output changes as little as possible.
"""

from .calib import HessianAccumulator
from .config import DEFAULT_DAMPING, TOL, Tolerances
from .errors import ManifestError, NotSpdError, ObslimError, TensorFormatError
from .ffn_pruner import prune_channels
from .head_pruner import prune_heads
from .linalg import SpdMatrix, grouped_cholesky, invert_spd, remove_block
from .obs_core import (
    PruneResult,
    block_errors,
    greedy_prune,
    group_sizes,
    least_squares_oracle,
    mask_residual,
)
from .pipeline import (
    LayerWeights,
    PruneConfig,
    PruneReport,
    ToyModelSpec,
    forward_layer,
    forward_model,
    gen_toy,
    prune_model,
    verify_report,
)
from .schedule import PruneSchedule, build_schedule, counts_from_ratio
from .tensorstore import (
    LayerEntry,
    ModelManifest,
    read_tensor_file,
    validate_manifest,
    write_tensor_file,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DAMPING",
    "HessianAccumulator",
    "LayerEntry",
    "LayerWeights",
    "ManifestError",
    "ModelManifest",
    "NotSpdError",
    "ObslimError",
    "PruneConfig",
    "PruneReport",
    "PruneResult",
    "PruneSchedule",
    "SpdMatrix",
    "TOL",
    "TensorFormatError",
    "Tolerances",
    "ToyModelSpec",
    "block_errors",
    "build_schedule",
    "counts_from_ratio",
    "forward_layer",
    "forward_model",
    "gen_toy",
    "greedy_prune",
    "grouped_cholesky",
    "group_sizes",
    "invert_spd",
    "least_squares_oracle",
    "mask_residual",
    "prune_channels",
    "prune_heads",
    "prune_model",
    "read_tensor_file",
    "remove_block",
    "validate_manifest",
    "verify_report",
    "write_tensor_file",
]
