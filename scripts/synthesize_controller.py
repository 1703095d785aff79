#!/usr/bin/env python3
"""Synthesize a controller from a confusion matrix and print the sweep.

Row-normalizes the confusion matrix into misclassification rates, sweeps
the controller grid through the model checker, and prints the chosen
(c1, c2) together with its verified safety and expected step time.

Example:
    python3 scripts/synthesize_controller.py --c00 2000 --c01 290 \
        --c10 10 --c11 200
"""

import argparse

from colavoid import synthesis, uq
from colavoid.harness import default_specs
from colavoid.pdtmc import ModelConstants, reference_model
from colavoid.synthesis import ParamSpace


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--c00", type=int, default=2000)
    parser.add_argument("--c01", type=int, default=290)
    parser.add_argument("--c10", type=int, default=10)
    parser.add_argument("--c11", type=int, default=200)
    parser.add_argument("--grid", type=int, default=11)
    parser.add_argument("--safety-bound", type=float, default=0.9)
    parser.add_argument("--time-bound", type=float, default=15.0)
    parser.add_argument("--report", help="write the full sweep to this CSV")
    args = parser.parse_args()

    u = uq.quantify(uq.ConfusionMatrix.from_rows(
        [[args.c00, args.c01], [args.c10, args.c11]]))
    constants = ModelConstants()
    model = reference_model(constants)
    space = ParamSpace(counts=(args.grid, args.grid))
    state_specs, reward_specs = default_specs(args.safety_bound, args.time_bound)
    kappa, qr, feasible = synthesis.synthesize(
        u, model, space, state_specs, reward_specs,
        base_valuation=constants.valuation())
    safety, time = qr.row_for(kappa)

    print(f"rates: p00={u.p00:.4f} p01={u.p01:.4f} p10={u.p10:.4f} p11={u.p11:.4f}")
    print(f"chosen: c1={kappa[0]:g} c2={kappa[1]:g} (feasible={feasible})")
    print(f"verified: safety={safety:.5f} expected_time={time:.4f}")
    if args.report:
        synthesis.write_report(args.report, synthesis.discretize(space), qr,
                               kappa, feasible)
        print(f"sweep written to {args.report}")


if __name__ == "__main__":
    main()
