"""Per-layer metrics computed from the spans of one traced run."""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracer import self_times

MODULES = ("simenv", "perception", "uq", "synthesis", "pmc", "pdtmc", "monitor", "runtime")
COARSE_CANDIDATES, FINE_CANDIDATES = 11 * 11, 101 * 101


def layer_metrics(spans):
    """Returns (metrics, accounted): accounted is harness.self_s plus the
    durations of the direct children of run_experiment, in seconds, or None
    when the workload has no run_experiment span.  A time per call is 0 when
    the layer was not called in the workload."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def total(name):
        return sum(dur(i) for i in by_name[name])

    def mean_of(ids, scale):
        return sum(dur(i) for i in ids) / len(ids) * scale if ids else 0.0

    def mean(name, scale):
        return mean_of(by_name[name], scale)

    def in_sweep(name):
        """Spans of `name` made by quantify_candidates itself, not by a
        re-check of a chosen candidate."""
        return [i for i in by_name[name] if spans[i][3] in sweeps]

    def median_where(name, info, scale):
        values = [dur(i) for i in by_name[name] if spans[i][4] == info]
        return statistics.median(values) * scale if values else 0.0

    sweeps = set(by_name["pmc.quantify_candidates"])
    train_ids = set(by_name["perception.train"])
    epochs = sum(1 for i in by_name["perception.dataset_loss"] if spans[i][3] in train_ids)
    cursors = [spans[i][4] for i in by_name["simenv.World.step"]]
    candidates = sum(spans[i][4] for i in by_name["pmc.quantify_candidates"])
    signalled = sum(1 for i in by_name["runtime.DualRuntime.signal_repair"] if spans[i][4])
    accepted = sum(1 for i in by_name["runtime.DualRuntime.finish_repair"] if spans[i][4])
    steps = by_name["simenv.World.step"]
    runs = by_name["harness.run_experiment"]

    m = {
        "simenv.label_calls": len(by_name["simenv.ground_truth_label"]),
        "simenv.label_us": mean("simenv.ground_truth_label", 1e6),
        "simenv.trace_used_ratio": max(c / n for c, n in cursors) if cursors else 0.0,
        "simenv.step_self_us": sum(selfs[i] for i in steps) / len(steps) * 1e6 if steps else 0.0,
        "perception.train_calls": len(train_ids),
        "perception.train_s": mean("perception.train", 1.0),
        "perception.epoch_ms": total("perception.train") / epochs * 1e3 if epochs else 0.0,
        "perception.predict_calls": len(by_name["perception.MLPPredictor.predict"]),
        "perception.predict_us": mean("perception.MLPPredictor.predict", 1e6),
        "uq.confusion_ms": mean("uq.evaluate_confusion", 1e3),
        "uq.accuracy_ms": mean("uq.accuracy", 1e3),
        "synthesis.calls": len(by_name["synthesis.synthesize"]),
        "synthesis.ms": mean("synthesis.synthesize", 1e3),
        "synthesis.coarse_ms": median_where("synthesis.synthesize", COARSE_CANDIDATES, 1e3),
        "synthesis.fine_ms": median_where("synthesis.synthesize", FINE_CANDIDATES, 1e3),
        "pmc.candidates": candidates,
        "pmc.candidate_us": total("pmc.quantify_candidates") / candidates * 1e6 if candidates else 0.0,
        "pmc.check_us": sum(dur(i) for i in in_sweep("pmc.until_probability")
                            + in_sweep("pmc.expected_reward_to_absorption"))
        / candidates * 1e6 if candidates else 0.0,
        "pdtmc.instantiate_us": mean_of(in_sweep("pdtmc.instantiate"), 1e6),
        "monitor.observe_us": mean("monitor.Monitor.observe", 1e6),
        "monitor.log_row_us": mean("monitor.Monitor.log_trace_row", 1e6),
        "monitor.evaluate_ms": mean("monitor.Monitor.evaluate", 1e3),
        "runtime.repairs": len(by_name["runtime.DualRuntime.run_repair"]),
        "runtime.accept_ratio": accepted / signalled if signalled else 0.0,
        "runtime.repair_s": mean("runtime.DualRuntime.run_repair", 1.0),
        "runtime.blocked_s": total("runtime.DualRuntime.signal_repair")
        + total("runtime.DualRuntime.finish_repair"),
        "harness.init_s": total("harness.initial_system"),
        "harness.trace_s": total("harness.load_or_generate_trace"),
        "harness.self_s": sum(selfs[i] for i in runs),
        "trace.spans": len(spans),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = sum(selfs[i] for i, span in enumerate(spans)
                                    if span[0].split(".", 1)[0] == module)

    accounted = None
    if runs:
        run_set = set(runs)
        accounted = m["harness.self_s"] + sum(dur(i) for i, span in enumerate(spans)
                                              if span[3] in run_set)
    return m, accounted
