"""Correctness checks on what a workload produced.

Each check returns a list of ``(name, ok, detail)``; every entry counts as one
attempted operation and every ``ok == False`` as one failed operation.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

ARTIFACTS = ("metrics.csv", "periods.csv", "steps.csv", "monitor_trace.csv", "events.csv")
TOLERANCE = 1e-10


def read_metrics(run_dir):
    with open(os.path.join(run_dir, "metrics.csv"), newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return {key: value for key, value in reader}


def step_queries(run_dir):
    """Perception queries of each attempted step, from steps.csv."""
    return [int(r["queries"]) for r in _rows(os.path.join(run_dir, "steps.csv"))]


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def fingerprints(run_dir):
    """sha256 of each run artifact; None for one the run did not write."""
    out = {}
    for name in ARTIFACTS:
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        else:
            out[name] = None
    return out


def check_experiment(run_dir, cfg, expected_trace_hash=None):
    """metrics.csv against steps.csv and events.csv, availability, and the
    trace hash recorded in metadata.json, for a run of ExperimentConfig `cfg`.
    An accepted repair must have passed the run's own test gate,
    ``cfg.monitor.threshold_2``."""
    m = read_metrics(run_dir)
    steps = _rows(os.path.join(run_dir, "steps.csv"))
    results = [
        ("queries_sum", sum(int(r["queries"]) for r in steps) == int(m["queries"]),
         f"steps.csv sums to {sum(int(r['queries']) for r in steps)}, metrics.csv says {m['queries']}"),
        ("attempts_rows", len(steps) == int(m["attempts"]),
         f"steps.csv has {len(steps)} rows, metrics.csv says {m['attempts']} attempts"),
        ("collisions", sum(r["outcome"] == "collision" for r in steps) == int(m["collisions"]),
         f"metrics.csv says {m['collisions']} collisions"),
        ("unserved", int(m["unserved"]) == 0, f"unserved={m['unserved']}"),
    ]
    events_path = os.path.join(run_dir, "events.csv")
    if cfg.method == "sa":
        accepts = [r for r in _rows(events_path) if r["event"] == "accept"]
        gates = [float(r["detail"].split(";")[0].split("=")[1]) for r in accepts]
        results.append(("accept_gate", all(a >= cfg.monitor.threshold_2 for a in gates),
                        f"accepted test accuracies {gates}"))
        results.append(("accept_count", len(accepts) == int(m["repairs_accepted"]),
                        f"{len(accepts)} accept events, metrics.csv says {m['repairs_accepted']}"))
    else:
        results.append(("no_repairs", int(m["repairs_accepted"]) == 0
                        and not os.path.exists(events_path),
                        f"static method reports {m['repairs_accepted']} repairs"))
    if expected_trace_hash is not None:
        with open(os.path.join(run_dir, "metadata.json")) as fh:
            recorded = json.load(fh)["trace_hash"]
        results.append(("trace_hash", recorded == expected_trace_hash,
                        f"metadata {recorded[:12]}, generated {expected_trace_hash[:12]}"))
    return results


def choose(candidates, rows, n_state, reward_bounds, state_bounds):
    """Independent restatement of the synthesis filter: among candidates
    meeting every reward bound, the highest safety, then the lowest first
    reward, then the first candidate; the safest overall when none does."""
    def meets(row):
        return all(v <= b for v, b in zip(row[n_state:], reward_bounds))

    pool = [i for i, row in enumerate(rows) if meets(row)]
    feasible = bool(pool)
    if not pool:
        pool = range(len(rows))
    best = min(pool, key=lambda i: (-rows[i][0], rows[i][n_state], candidates[i]))
    feasible = feasible and all(v >= b for v, b in zip(rows[best][:n_state], state_bounds))
    return candidates[best], feasible


def check_synthesis(u, grid, kappa, qr, feasible, model, base_valuation, state_specs,
                    reward_specs):
    """Re-derive the chosen candidate from the QR rows of one grid x grid
    synthesis and re-check it with the per-candidate model-checking functions."""
    from colavoid import pmc
    from colavoid.pdtmc import instantiate

    size = grid ** 2
    chosen, chosen_feasible = choose(
        qr.candidates, qr.rows, len(state_specs),
        [s.bound for s in reward_specs], [s.bound for s in state_specs])
    valuation = dict(base_valuation)
    valuation.update(u.as_valuation())
    valuation.update({"c1": kappa[0], "c2": kappa[1]})
    chain = instantiate(model, valuation)
    recheck = [pmc.until_probability(chain, s.avoid, s.target) for s in state_specs]
    recheck += [pmc.expected_reward_to_absorption(chain, s.targets) for s in reward_specs]
    row = qr.row_for(kappa)
    return [
        ("qr_size", len(qr.rows) == size, f"{len(qr.rows)} rows for a {size}-point grid"),
        ("filter", (tuple(chosen), chosen_feasible) == (tuple(kappa), feasible),
         f"re-derived {chosen}/{chosen_feasible}, synthesize gave {kappa}/{feasible}"),
        ("recheck", all(abs(a - b) <= TOLERANCE for a, b in zip(recheck, row)),
         f"re-checked {recheck}, QR row {row}"),
    ]
