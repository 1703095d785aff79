"""Span recorder installed from outside around colavoid's public functions.

Each wrapped call appends one span ``[name, start, end, parent, info]`` to an
in-memory list; ``parent`` is the index of the innermost enclosing span (or
-1) and ``info`` is an optional value a hook derives from the call.  The
wrappers are installed by replacing module and class attributes and are
removed again by ``uninstall``, which restores the original objects.
"""

from __future__ import annotations

import csv
import functools
from time import perf_counter


def _record_cursor(args, result):
    world = args[0]
    return (world.cursor, len(world.trace))


def _record_result(args, result):
    return result


def _record_candidates(args, result):
    return len(result.rows)


def _record_grid(args, result):
    return len(result[1].rows)


def targets():
    """(owner, attribute, span name, info hook) for every wrapped function.

    ``pmc.instantiate`` is wrapped at that name because pmc imports it from
    pdtmc; its spans are attributed to the pdtmc layer.
    """
    from colavoid import (harness, monitor, perception, pmc, runtime, simenv,
                          synthesis, uq)
    return [
        (harness, "run_experiment", "harness.run_experiment", None),
        (harness, "initial_system", "harness.initial_system", None),
        (harness, "load_or_generate_trace", "harness.load_or_generate_trace", None),
        (simenv, "ground_truth_label", "simenv.ground_truth_label", None),
        (simenv, "gen_initial_datasets", "simenv.gen_initial_datasets", None),
        (simenv, "generate_trace", "simenv.generate_trace", None),
        (simenv, "read_trace", "simenv.read_trace", None),
        (simenv.World, "step", "simenv.World.step", _record_cursor),
        (perception, "train", "perception.train", None),
        (perception, "dataset_loss", "perception.dataset_loss", None),
        (perception.MLPPredictor, "predict", "perception.MLPPredictor.predict", None),
        (uq, "evaluate_confusion", "uq.evaluate_confusion", None),
        (uq, "accuracy", "uq.accuracy", None),
        (synthesis, "synthesize", "synthesis.synthesize", _record_grid),
        (synthesis, "discretize", "synthesis.discretize", None),
        (synthesis, "filter_optimal", "synthesis.filter_optimal", None),
        (pmc, "quantify_candidates", "pmc.quantify_candidates", _record_candidates),
        (pmc, "instantiate", "pdtmc.instantiate", None),
        (pmc, "until_probability", "pmc.until_probability", None),
        (pmc, "expected_reward_to_absorption", "pmc.expected_reward_to_absorption", None),
        (monitor.Monitor, "observe", "monitor.Monitor.observe", None),
        (monitor.Monitor, "log_trace_row", "monitor.Monitor.log_trace_row", None),
        (monitor.Monitor, "evaluate", "monitor.Monitor.evaluate", None),
        (runtime.DualRuntime, "signal_repair", "runtime.DualRuntime.signal_repair", _record_result),
        (runtime.DualRuntime, "finish_repair", "runtime.DualRuntime.finish_repair", _record_result),
        (runtime.DualRuntime, "run_repair", "runtime.DualRuntime.run_repair", None),
    ]


class Tracer:
    """Keeps spans in memory; single-threaded (the workloads repair in line)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, result)
            return result

        return wrapper

    def install(self, wrap_targets):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in wrap_targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "info"])
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                writer.writerow([i, name, repr(start), repr(end), parent,
                                 "" if info is None else info])


def self_times(spans):
    """Per-span self time: duration minus the union of its direct children's
    intervals, clipped to the span."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out
