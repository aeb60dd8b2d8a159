"""In-memory span tracer that wraps obslim's public functions from outside.

Every public function defined in an ``obslim`` module is replaced, in each
module namespace that binds it, by a wrapper that records a span
``(name, start, end, parent, run)``. Patching the binding where the caller
looks it up (``obslim.pipeline.prune_heads``, ``obslim.obs_core.remove_update``,
``obslim.cli.read_tensor_file``...) is what makes a call visible; nothing
under ``src/`` is edited. A few class methods that carry per-call work are
patched on the class itself. ``Tracer.recording()`` restores every binding
on exit, so untraced jobs in the same process run the original code.

Span names are ``<module>.<function>``; the module part is the layer name
used for self time. Counts are recorded at the same boundaries by hooks
that read the call's arguments or result.
"""

import contextlib
import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import Counter, defaultdict

import obslim

# Class methods worth a span of their own: (module, class, method, span name).
CLASS_METHODS = (
    ("linalg", "SpdMatrix", "__init__", "linalg.spd_init"),
    ("calib", "HessianAccumulator", "accumulate", "calib.accumulate"),
    ("calib", "HessianAccumulator", "finalize", "calib.finalize"),
)


def _n_prune(a, _):
    return a["n_prune"]


# Span name -> {count name: fn(bound arguments, result) -> amount}.
COUNT_HOOKS = {
    "tensorstore.read_tensor_file": {"tensorstore.bytes_read": lambda a, _: os.path.getsize(a["path"])},
    "tensorstore.write_tensor_file": {
        "tensorstore.bytes_written": lambda a, _: os.path.getsize(a["path"])
    },
    "obs_core.column_errors": {"obs_core.cols_scored": lambda a, _: a["w"].shape[1]},
    "ffn_pruner.prune_channels": {"ffn_pruner.channels_removed": _n_prune},
    # Computed, not measured: one float64 pass over the n x n inverse Hessian.
    "linalg.remove_update": {"linalg.remove_update_bytes": lambda a, _: 8 * a["h_inv"].n ** 2},
    "head_pruner.head_errors": {"head_pruner.heads_scored": lambda a, _: a["layout"].n_head},
    "head_pruner.prune_heads": {
        "head_pruner.heads_removed": _n_prune,
        "head_pruner.rounds": lambda _, r: r.total_rounds,
    },
}


def obslim_modules() -> list:
    mods = [obslim]
    for info in pkgutil.iter_modules(obslim.__path__):
        mods.append(importlib.import_module(f"obslim.{info.name}"))
    return mods


class Tracer:
    """Spans and counts of traced jobs, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, run id]
        self.counts = defaultdict(Counter)  # run id -> Counter
        self.run_id = None
        self._stack = []

    def wrap(self, name: str, fn):
        hooks = COUNT_HOOKS.get(name)
        sig = inspect.signature(fn) if hooks else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if hooks:
                bound = sig.bind(*args, **kwargs).arguments
                counts = self.counts[self.run_id]
                for key, hook in hooks.items():
                    counts[key] += hook(bound, result)
            return result

        return traced

    def _patch_plan(self) -> list:
        """(owner, attribute, original, span name) for every binding to wrap."""
        plan = []
        mods = obslim_modules()
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__.startswith("obslim.")
                ):
                    name = f"{obj.__module__.split('.', 1)[1]}.{obj.__name__}"
                    plan.append((mod, attr, obj, name))
        for mod_name, cls_name, meth, name in CLASS_METHODS:
            cls = getattr(importlib.import_module(f"obslim.{mod_name}"), cls_name)
            plan.append((cls, meth, cls.__dict__[meth], name))
        return plan

    @contextlib.contextmanager
    def recording(self, run_id: int):
        """Wrap every planned binding and tag the spans recorded inside the
        block with ``run_id``; the original bindings are restored on exit."""
        plan = self._patch_plan()
        self.run_id = run_id
        self.counts[run_id]  # a job with no counted calls still gets an entry
        try:
            for owner, attr, orig, name in plan:
                setattr(owner, attr, self.wrap(name, orig))
            yield self
        finally:
            for owner, attr, orig, _ in plan:
                setattr(owner, attr, orig)
            self.run_id = None

    def job_profile(self, run_id: int) -> dict:
        """Inclusive time and calls per span name, and self time per layer."""
        rows = [(i, s) for i, s in enumerate(self.spans) if s[4] == run_id]
        child_time = Counter()
        for _, (_, start, end, parent, _) in rows:
            if parent is not None:
                child_time[parent] += end - start
        incl = Counter()
        calls = Counter()
        self_by_layer = Counter()
        for i, (name, start, end, _, _) in rows:
            incl[name] += end - start
            calls[name] += 1
            self_by_layer[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return {
            "incl_s": dict(incl),
            "calls": dict(calls),
            "self_s": dict(self_by_layer),
            "counts": dict(self.counts[run_id]),
        }

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "run"],
            "spans": self.spans,
            "counts": {str(k): dict(v) for k, v in self.counts.items()},
        }
