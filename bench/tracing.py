"""Span recorder for the traced run.

The recorder times riskmdp from outside: it replaces public functions by
wrappers under the name their calling module looks up (``recursive`` reaches
``oce`` through its own namespace, the CLI reaches the solvers through
``riskmdp.cli``), so nothing under ``src/`` changes.  Spans stay in memory
as ``[name, start, end, parent, counts]`` and are written once, when the run
ends.  A layer's self time is its span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name) of every wrapped function.  Top-level solver
# entry points are wrapped in their own module and, where the CLI imported
# them by name, in riskmdp.cli as well.
WRAPPED = [
    ("riskmdp.cli", "load", "mdp.load"),
    ("riskmdp.report", "SolveReport.to_json", "report.emit"),
    ("riskmdp.neutral", "value_iteration", "neutral.solve"),
    ("riskmdp.cli", "value_iteration", "neutral.solve"),
    ("riskmdp.neutral", "bellman_T", "neutral.sweep"),
    ("riskmdp.recursive", "solve_recursive", "recursive.solve"),
    ("riskmdp.cli", "solve_recursive", "recursive.solve"),
    ("riskmdp.recursive", "recursive_bellman_L", "recursive.sweep"),
    ("riskmdp.recursive", "push_forward", "recursive.push_forward"),
    ("riskmdp.recursive", "oce", "oce.call"),
    ("riskmdp.recursive", "entropic_fast_path", "recursive.entropic"),
    ("riskmdp.cli", "entropic_fast_path", "recursive.entropic"),
    ("riskmdp.augmented", "solve_total_oce", "augmented.solve"),
    ("riskmdp.cli", "solve_total_oce", "augmented.solve"),
    ("riskmdp.augmented", "solve_sandwich", "augmented.sandwich"),
    ("riskmdp.augmented", "augmented_T", "augmented.sweep"),
    ("riskmdp.augmented", "entropic_total", "augmented.entropic"),
    ("riskmdp.cli", "entropic_total", "augmented.entropic"),
    ("riskmdp.ergodic", "ergodic_rvi", "ergodic.rvi"),
    ("riskmdp.cli", "ergodic_rvi", "ergodic.rvi"),
    ("riskmdp.ergodic", "check_unichain_aperiodic", "mdp.chain_check"),
    ("riskmdp.simulate", "rollout", "simulate.rollout"),
    ("riskmdp.cli", "rollout", "simulate.rollout"),
    ("riskmdp.simulate", "estimate", "simulate.estimate"),
    ("riskmdp.cli", "estimate", "simulate.estimate"),
]


def _kernel_mb(m, sweeps):
    """Computed size of ``sweeps`` float64 arrays shaped like the kernel."""
    return sweeps * m.n_states * m.n_actions * m.n_states * 8 / 1e6


def _counts(span, args, out):
    """Work counts a span carries, read from its arguments and result."""
    if span == "augmented.sandwich":
        m, _, grid = args[:3]
        cells = grid.n_levels * m.n_states * grid.y.size
        return {"augmented.grid_cells": cells, "augmented.table_mb": cells * 8 / 1e6}
    if span == "recursive.entropic":
        return {"recursive.entropic_sweeps": out.iterations,
                "recursive.entropic_computed_mb": _kernel_mb(args[0], out.iterations)}
    if span == "ergodic.rvi":
        return {"ergodic.sweeps": out.iterations,
                "ergodic.computed_mb": _kernel_mb(args[0], out.iterations)}
    if span == "mdp.chain_check":
        return {"mdp.chain_policies": len(out.reports)}
    if span == "simulate.rollout":
        return {"simulate.steps": out.replications * out.horizon}
    return None


class Recorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    def add(self, name, start, end):
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, None])

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _counts(name, args, out)
            return out

        return wrapper

    def install(self):
        for modname, attr, name in WRAPPED:
            owner = importlib.import_module(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            self._undo.append((owner, leaf, orig))
            setattr(owner, leaf, self.wrap(name, orig))
        return self

    def uninstall(self):
        for owner, leaf, orig in reversed(self._undo):
            setattr(owner, leaf, orig)
        self._undo.clear()


def aggregate(spans):
    """Self time, call count and summed work counts per span name."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    agg = {"self_s": {}, "calls": {}, "counts": {}}
    for i, (name, _, _, _, counts) in enumerate(spans):
        agg["self_s"][name] = agg["self_s"].get(name, 0.0) + dur[i] - child[i]
        agg["calls"][name] = agg["calls"].get(name, 0) + 1
        for key, val in (counts or {}).items():
            agg["counts"][key] = agg["counts"].get(key, 0) + val
    return agg


def merge(aggs):
    out = {"self_s": {}, "calls": {}, "counts": {}}
    for agg in aggs:
        for part in out:
            for key, val in agg[part].items():
                out[part][key] = out[part].get(key, 0) + val
    return out


# per-layer metric -> (part of the aggregate, key)
LAYER_METRICS = {
    "cli.import_s": ("self_s", "cli.import"),
    "report.emit_s": ("self_s", "report.emit"),
    "mdp.load_s": ("self_s", "mdp.load"),
    "mdp.chain_check_s": ("self_s", "mdp.chain_check"),
    "mdp.chain_policies": ("counts", "mdp.chain_policies"),
    "oce.call_s": ("self_s", "oce.call"),
    "oce.calls": ("calls", "oce.call"),
    "recursive.push_forward_s": ("self_s", "recursive.push_forward"),
    "recursive.sweep_s": ("self_s", "recursive.sweep"),
    "recursive.sweeps": ("calls", "recursive.sweep"),
    "recursive.entropic_s": ("self_s", "recursive.entropic"),
    "recursive.entropic_sweeps": ("counts", "recursive.entropic_sweeps"),
    "recursive.entropic_computed_mb": ("counts", "recursive.entropic_computed_mb"),
    "augmented.sweep_s": ("self_s", "augmented.sweep"),
    "augmented.sweeps": ("calls", "augmented.sweep"),
    "augmented.other_s": ("self_s", "augmented.solve"),
    "augmented.grid_cells": ("counts", "augmented.grid_cells"),
    "augmented.table_mb": ("counts", "augmented.table_mb"),
    "augmented.entropic_s": ("self_s", "augmented.entropic"),
    "neutral.sweep_s": ("self_s", "neutral.sweep"),
    "neutral.sweeps": ("calls", "neutral.sweep"),
    "ergodic.rvi_s": ("self_s", "ergodic.rvi"),
    "ergodic.sweeps": ("counts", "ergodic.sweeps"),
    "ergodic.computed_mb": ("counts", "ergodic.computed_mb"),
    "simulate.rollout_s": ("self_s", "simulate.rollout"),
    "simulate.estimate_s": ("self_s", "simulate.estimate"),
    "simulate.steps": ("counts", "simulate.steps"),
}


def layer_values(agg):
    return {metric: agg[part].get(key, 0) for metric, (part, key) in LAYER_METRICS.items()}
