"""Command-line entry point.

Subcommands: synthesize, check, simulate (one method), compare (all three
methods on one shared trace), calibrate-oracle, summarize.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import pmc, simenv, synthesis, uq
from .harness import (ENVIRONMENTS, METHODS, ExperimentConfig, HarnessError, default_specs,
                      format_table, run_comparison, run_experiment, summarize)
from .monitor import MonitorConfig, MonitorError
from .pdtmc import ModelConstants, ModelError, instantiate, parse_model, reference_model
from .perception import PerceptionError
from .synthesis import ParamSpace

#: errors of the input of `check` and `synthesize` (their files and values),
#: which `main` reports as a usage error rather than a traceback
INPUT_ERRORS = (OSError, ModelError, pmc.CheckError, uq.QuantifyError,
                synthesis.SynthesisError)
#: errors of building the config of `simulate` and `compare` from the
#: --config file and the flags; an error of the run itself still raises
CONFIG_ERRORS = (OSError, ValueError, TypeError, HarnessError, MonitorError, ModelError,
                 PerceptionError, simenv.EnvError)


def _load_model(path, constants):
    """The chain in the file at `path`, or the shipped reference chain."""
    if path is None:
        return reference_model(constants)
    with open(path) as fh:
        text = fh.read()
    try:
        return parse_model(text, constants.valuation())
    except ModelError as exc:
        raise ModelError(f"{path}: {exc}") from None


def _pair(text):
    """Exactly two comma-separated floats."""
    try:
        c1, c2 = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two floats 'c1,c2', got {text!r}") from None
    return c1, c2


def cmd_synthesize(args):
    constants = ModelConstants()
    model = _load_model(args.model, constants)
    u = uq.quantify(uq.ConfusionMatrix.read_csv(args.confusion))
    space = ParamSpace(counts=(args.grid, args.grid))
    state_specs, reward_specs = default_specs(args.safety_bound, args.time_bound)
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
    constants = ModelConstants()
    model = _load_model(args.model, constants)
    u = uq.quantify(uq.ConfusionMatrix.read_csv(args.confusion))
    c1, c2 = args.params
    valuation = dict(constants.valuation())
    valuation.update(u.as_valuation())
    valuation.update({"c1": c1, "c2": c2})
    chain = instantiate(model, valuation)
    safety = pmc.until_probability(chain, "collision", "done")
    time = pmc.expected_reward_to_absorption(chain, {"done", "collision"})
    print(json.dumps({"c1": c1, "c2": c2, "safety": safety, "expected_time": time},
                     indent=2))
    return 0


#: experiment flag -> ExperimentConfig field
CONFIG_FLAGS = {"method": "method", "env": "environment", "steps": "steps",
                "seed": "seed", "out": "out_dir", "trace": "trace_path"}


def _config_from_args(args):
    """The --config file (or the defaults) with every given flag applied;
    the config is validated once, with the flags in it."""
    try:
        cfg = ExperimentConfig.from_json(args.config) if args.config else ExperimentConfig()
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.config}: malformed JSON: {exc}") from None
    given = {name: getattr(args, flag) for flag, name in CONFIG_FLAGS.items()
             if getattr(args, flag, None) is not None}
    return replace(cfg, **given)


def cmd_simulate(cfg):
    metrics = run_experiment(cfg)
    print(json.dumps({"accuracy": metrics.accuracy, "safety_rate": metrics.safety_rate,
                      "mean_step_time": metrics.mean_step_time,
                      "repairs_accepted": metrics.repairs_accepted}, indent=2))
    return 0


def cmd_compare(cfg):
    run_comparison(cfg)
    print(format_table(*summarize([os.path.join(cfg.out_dir, m) for m in METHODS])))
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
    parser.set_defaults(input_errors=())
    sub = parser.add_subparsers(dest="command", required=True)

    model_help = "model file (default: the shipped collision.pdtmc)"
    p = sub.add_parser("synthesize", help="grid-search controller synthesis")
    p.add_argument("--model", help=model_help)
    p.add_argument("--confusion", required=True)
    p.add_argument("--grid", type=int, default=11)
    p.add_argument("--time-bound", type=float, default=MonitorConfig.time_bound)
    p.add_argument("--safety-bound", type=float, default=MonitorConfig.safety_bound)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synthesize, input_errors=INPUT_ERRORS)

    p = sub.add_parser("check", help="evaluate one controller candidate")
    p.add_argument("--model", help=model_help)
    p.add_argument("--params", required=True, type=_pair, help="c1,c2")
    p.add_argument("--confusion", required=True)
    p.set_defaults(func=cmd_check, input_errors=INPUT_ERRORS)

    p = sub.add_parser("simulate", help="run one experiment")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--trace", help="shared benchmark trace CSV")
    p.set_defaults(func=cmd_simulate, input_errors=CONFIG_ERRORS)
    compare = sub.add_parser("compare", help="run every method on one shared trace")
    compare.set_defaults(func=cmd_compare, input_errors=CONFIG_ERRORS)
    for q in (p, compare):
        q.add_argument("--env", choices=ENVIRONMENTS)
        q.add_argument("--steps", type=int)
        q.add_argument("--seed", type=int)
        q.add_argument("--out")
        q.add_argument("--config", help="JSON config file")

    p = sub.add_parser("calibrate-oracle", help="fit the collision radius")
    p.add_argument("--target", type=float, default=0.25)
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int, default=12345)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("summarize", help="compare completed runs")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_summarize, input_errors=(OSError, HarnessError))
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "config" not in args:
            return args.func(args)
        # simulate and compare read their input only while the config is built
        cfg = _config_from_args(args)
    except args.input_errors as exc:
        parser.error(str(exc))
    return args.func(cfg)


if __name__ == "__main__":
    sys.exit(main())
