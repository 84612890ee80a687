"""Span tracing installed around the simulator's layer boundaries.

The traced run replaces each patch point below with a wrapper that
records a span (name, start, end, parent) in flat in-memory arrays, and
puts the original object back afterwards.  Every name is patched where
it is looked up: ``simulator`` and ``learners`` import functions by
name, so e.g. ``learners.step`` is patched as ``domkl.simulator.step``.
The op id of a span is the number of root spans (one per op) before it.

A layer's self time is its spans' durations minus the time covered by
their child spans; bookkeeping of a child lands in its parent's self
time, which is why the traced run is slower (``trace.overhead_frac``).
"""

from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

ROOT = "op"

# (module, attribute path, span name).  A span name of None marks a
# point whose wrapper picks the name from its arguments.
PATCH_POINTS = (
    ("domkl.simulator", "build_trial_context", "simulator.build_trial_context"),
    ("domkl.simulator", "sample_connected_er", "graph.sample"),
    ("domkl.simulator", "from_edge_list", "graph.sample"),
    ("domkl.graph", "generate_er", "graph.generate_er"),
    ("domkl.simulator", "synth_regression", "data.synth"),
    ("domkl.simulator", "synth_ar", "data.synth"),
    ("domkl.features", "FeatureMap.map", "features.map"),
    ("domkl.simulator", "run_trial", "simulator.run_trial"),
    ("domkl.simulator", "_run_admm_family", None),
    ("domkl.simulator", "_run_comkl", "simulator.run.comkl"),
    ("domkl.simulator", "_run_rff_dokl", "simulator.run.rff_dokl"),
    ("domkl.simulator", "step", "learners.step"),
    ("domkl.learners", "theta_update_quadratic", "admm.theta_update"),
    ("domkl.learners", "lambda_update", "admm.lambda_update"),
    ("domkl.learners", "gamma_hat", "admm.gamma_hat"),
    ("domkl.learners", "combine_weights", "hedge.combine_weights"),
    ("domkl.learners", "accumulate", "hedge.accumulate"),
    ("domkl.learners", "mp_combine_weights", "hedge.mp_combine"),
    ("domkl.simulator", "mp_update_messages", "hedge.mp_update"),
    ("domkl.simulator", "_map_stack", "simulator.cross_eval"),
    ("domkl.simulator", "_combined_prediction", "simulator.cross_eval"),
    ("domkl.simulator", "comkl_step", "baselines.comkl_step"),
    ("domkl.simulator", "rff_dokl_step", "baselines.rff_dokl_step"),
    ("domkl.simulator", "aggregate", "simulator.aggregate"),
    ("domkl.oracle", "hindsight_best", "oracle.hindsight"),
    ("domkl.simulator", "mse_curve", "metrics.curves"),
    ("domkl.simulator", "cv_curve", "metrics.curves"),
    ("domkl.simulator", "regret_discrepancy", "metrics.curves"),
    ("domkl.simulator", "regret_accuracy", "metrics.curves"),
    ("domkl.cli", "load_config", "cli.load_config"),
    ("domkl.cli", "_write_results", "cli.write_results"),
    ("domkl.cli", "run_experiment", "simulator.run_experiment"),
)

_TRACE_ARRAYS = ("predictions", "labels", "per_kernel_losses",
                 "cross_predictions", "weights")


def _owner(module_name, path):
    """The object holding the patched attribute, and the attribute name."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Recorder:
    """Spans of a traced run, kept in flat arrays until written out."""

    def __init__(self):
        self.names = []
        self.name_id = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.map_rows = array("q")
        self.trace_bytes = 0
        self._stack = [-1]
        self._patched = []

    def _id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn, name):
        """``fn`` recording one span named ``name`` per call."""
        name_id, parents, starts, ends, stack = (
            self._id(name), self.parent, self.start, self.end, self._stack)
        names, clock = self.name_id, time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def _wrap_map(self, fn):
        traced = self.wrap(fn, "features.map")
        rows = self.map_rows

        def traced_map(fmap, x):
            rows.append(np.size(x) // fmap.input_dim)
            return traced(fmap, x)

        return traced_map

    def _wrap_admm_family(self, fn):
        by_algorithm = {alg: self.wrap(fn, "simulator.run." + alg)
                        for alg in ("domkl", "dokl")}

        def traced_family(ctx, cfg, kernel_indices, algorithm, *args, **kw):
            return by_algorithm[algorithm](ctx, cfg, kernel_indices,
                                           algorithm, *args, **kw)

        return traced_family

    def _wrap_run_trial(self, fn):
        traced = self.wrap(fn, "simulator.run_trial")

        def traced_trial(*args, **kwargs):
            result = traced(*args, **kwargs)
            for trace in result.traces.values():
                self.trace_bytes += sum(getattr(trace, a).nbytes
                                        for a in _TRACE_ARRAYS)
            return result

        return traced_trial

    def install(self):
        """Patch every point; ``remove`` undoes it."""
        if self._patched:
            raise RuntimeError("tracing is already installed")
        for module_name, path, name in PATCH_POINTS:
            owner, attr = _owner(module_name, path)
            original = vars(owner)[attr]
            if path == "FeatureMap.map":
                wrapper = self._wrap_map(original)
            elif attr == "_run_admm_family":
                wrapper = self._wrap_admm_family(original)
            elif attr == "run_trial":
                wrapper = self._wrap_run_trial(original)
            else:
                wrapper = self.wrap(original, name)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self):
        """Put every original object back, in reverse patch order."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def arrays(self):
        """The spans as numpy arrays, with op ids and self times."""
        name_id = np.frombuffer(self.name_id, dtype=np.int16)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        child = parent >= 0
        covered = np.zeros(len(duration))
        np.add.at(covered, parent[child], duration[child])
        return {
            "names": np.array(self.names),
            "name_id": name_id,
            "parent": parent,
            "op": np.cumsum(parent < 0) - 1,
            "start": start,
            "end": end,
            "self_s": duration - covered,
            "map_rows": np.frombuffer(self.map_rows, dtype=np.int64),
        }

    def write(self, path):
        np.savez(path, **self.arrays())


def snapshot():
    """The current object at every patch point, keyed by (module, path)."""
    out = {}
    for module_name, path, _ in PATCH_POINTS:
        owner, attr = _owner(module_name, path)
        out[(module_name, path)] = vars(owner)[attr]
    return out


def changed_points(before):
    """Patch points whose object is no longer the one in ``before``."""
    now = snapshot()
    return sorted("%s.%s" % key for key in before if now[key] is not before[key])


# Per-layer metric -> the span names whose self time it sums.
TIME_METRICS = {
    "features.map_us": ("features.map",),
    "learners.step_us": ("learners.step",),
    "admm.theta_update_us": ("admm.theta_update",),
    "admm.lambda_update_us": ("admm.lambda_update",),
    "admm.gamma_hat_us": ("admm.gamma_hat",),
    "hedge.combine_weights_us": ("hedge.combine_weights",),
    "hedge.accumulate_us": ("hedge.accumulate",),
    "hedge.mp_update_us": ("hedge.mp_update",),
    "hedge.mp_combine_us": ("hedge.mp_combine",),
    "simulator.cross_eval_us": ("simulator.cross_eval",),
    "simulator.round_loop_self_us": (
        "simulator.run_trial", "simulator.run.domkl", "simulator.run.dokl",
        "simulator.run.comkl", "simulator.run.rff_dokl"),
    "simulator.build_context_us": ("simulator.build_trial_context",),
    "simulator.aggregate_self_us": ("simulator.aggregate",),
    "graph.sample_us": ("graph.sample", "graph.generate_er"),
    "data.synth_us": ("data.synth",),
    "baselines.comkl_step_us": ("baselines.comkl_step",),
    "baselines.rff_dokl_step_us": ("baselines.rff_dokl_step",),
    "oracle.hindsight_us": ("oracle.hindsight",),
    "metrics.curves_us": ("metrics.curves",),
    "cli.load_config_us": ("cli.load_config",),
    "cli.write_results_us": ("cli.write_results",),
    "op.self_us": (ROOT, "simulator.run_experiment"),
}


def layer_metrics(spans, node_rounds, ops, trace_bytes):
    """Per-layer metrics of ``ops`` traced ops of ``node_rounds`` each.

    Times are self time in microseconds per node-round, counts are per
    node-round, so both compare with ``us_per_node_round``.
    """
    names = list(spans["names"])
    total_rounds = node_rounds * ops
    self_by_id = np.bincount(spans["name_id"], weights=spans["self_s"],
                             minlength=len(names))
    calls_by_id = np.bincount(spans["name_id"], minlength=len(names))

    def self_s(span):
        return self_by_id[names.index(span)] if span in names else 0.0

    def calls(span):
        return int(calls_by_id[names.index(span)]) if span in names else 0

    out = {metric: (1e6 * sum(self_s(s) for s in group) / total_rounds, "us")
           for metric, group in TIME_METRICS.items()}
    rows = spans["map_rows"]
    out["features.map_calls_per_node_round"] = (
        calls("features.map") / total_rounds, "count")
    out["features.rows_per_map_call"] = (
        float(np.median(rows)) if len(rows) else 0.0, "rows")
    out["learners.step_calls_per_node_round"] = (
        calls("learners.step") / total_rounds, "count")
    out["graph.attempts_per_trial"] = (
        calls("graph.generate_er") / max(1, calls("simulator.build_trial_context")),
        "count")
    out["simulator.trace_bytes"] = (trace_bytes / ops, "bytes")
    return out


def ancestor_counts(spans, child, ancestors):
    """Calls of span ``child`` grouped by its nearest span in ``ancestors``.

    Returns a dict from ancestor name (or None when no listed span
    encloses the call) to the number of ``child`` spans under it.
    """
    names = list(spans["names"])
    wanted = {names.index(a): a for a in ancestors if a in names}
    if child not in names:
        return {}
    child_id = names.index(child)
    owner = np.full(len(spans["parent"]), -1)
    name_id, parent = spans["name_id"], spans["parent"]
    for i in range(len(parent)):
        if name_id[i] in wanted:
            owner[i] = name_id[i]
        elif parent[i] >= 0:
            owner[i] = owner[parent[i]]
    counts = {}
    for key in owner[name_id == child_id]:
        label = wanted.get(int(key))
        counts[label] = counts.get(label, 0) + 1
    return counts
