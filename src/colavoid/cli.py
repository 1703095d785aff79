"""Command-line entry point.

Subcommands: synthesize, check, simulate, calibrate-oracle, summarize.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import pmc, simenv, synthesis, uq
from .harness import (ExperimentConfig, default_specs, format_table, run_experiment,
                      summarize)
from .pdtmc import ModelConstants, instantiate, parse_model
from .synthesis import ParamSpace


def _load_model(path):
    with open(path) as fh:
        return parse_model(fh.read())


def cmd_synthesize(args):
    model = _load_model(args.model)
    u = uq.quantify(uq.ConfusionMatrix.read_csv(args.confusion))
    space = ParamSpace(counts=(args.grid, args.grid))
    state_specs, reward_specs = default_specs(args.safety_bound, args.time_bound)
    constants = ModelConstants()
    kappa, qr, feasible = synthesis.synthesize(
        u, model, space, state_specs, reward_specs,
        base_valuation=constants.valuation())
    row = qr.row_for(kappa)
    result = {
        "kappa": list(kappa), "feasible": feasible,
        "u": [u.p00, u.p01, u.p10, u.p11],
        "values": dict(zip(qr.columns, row)),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, indent=2)
        synthesis.write_report(os.path.splitext(args.out)[0] + "_report.csv",
                               qr, kappa, feasible)
    print(json.dumps(result, indent=2))
    return 0


def cmd_check(args):
    model = _load_model(args.model)
    u = uq.quantify(uq.ConfusionMatrix.read_csv(args.confusion))
    c1, c2 = (float(v) for v in args.params.split(","))
    constants = ModelConstants()
    valuation = dict(constants.valuation())
    valuation.update(u.as_valuation())
    valuation.update({"c1": c1, "c2": c2})
    chain = instantiate(model, valuation)
    safety = pmc.until_probability(chain, "collision", "done")
    time = pmc.expected_reward_to_absorption(chain, {"done", "collision"})
    print(json.dumps({"c1": c1, "c2": c2, "safety": safety, "expected_time": time},
                     indent=2))
    return 0


def cmd_simulate(args):
    kwargs = {}
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
        cfg.method = args.method or cfg.method
        cfg.environment = args.env or cfg.environment
        if args.steps:
            cfg.steps = args.steps
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.out_dir = args.out or cfg.out_dir
        if args.trace:
            cfg.trace_path = args.trace
    else:
        cfg = ExperimentConfig(method=args.method or "sa",
                               environment=args.env or "us",
                               steps=args.steps or 15000,
                               seed=args.seed if args.seed is not None else 0,
                               out_dir=args.out or "runs/out",
                               trace_path=args.trace)
    metrics = run_experiment(cfg)
    print(json.dumps({"accuracy": metrics.accuracy, "safety_rate": metrics.safety_rate,
                      "mean_step_time": metrics.mean_step_time,
                      "repairs_accepted": metrics.repairs_accepted}, indent=2))
    return 0


def cmd_calibrate(args):
    radius, rate = simenv.calibrate_radius(target=args.target, n=args.samples,
                                           seed=args.seed)
    print(json.dumps({"radius": radius, "positive_rate": rate,
                      "target": args.target}, indent=2))
    return 0


def cmd_summarize(args):
    header, rows = summarize(args.dirs)
    print(format_table(header, rows))
    if args.out:
        import csv
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="colavoid")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthesize", help="grid-search controller synthesis")
    p.add_argument("--model", required=True)
    p.add_argument("--confusion", required=True)
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--time-bound", type=float, default=15.0)
    p.add_argument("--safety-bound", type=float, default=0.9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("check", help="evaluate one controller candidate")
    p.add_argument("--model", required=True)
    p.add_argument("--params", required=True, help="c1,c2")
    p.add_argument("--confusion", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="run one experiment")
    p.add_argument("--method", choices=("sa", "no", "random"))
    p.add_argument("--env", choices=("us", "rw"))
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--trace", help="shared benchmark trace CSV")
    p.add_argument("--config", help="JSON config file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("calibrate-oracle", help="fit the collision radius")
    p.add_argument("--target", type=float, default=0.25)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=12345)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("summarize", help="compare completed runs")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_summarize)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
