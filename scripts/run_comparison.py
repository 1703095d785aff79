#!/usr/bin/env python3
"""Run the three-method comparison on one shared benchmark trace.

Each method (adaptive "sa", static "no", coin-flip "random") replays the
same pre-generated situation trace from the same seed, then the per-run
artifacts are summarized into a single table.

Example:
    python3 scripts/run_comparison.py --steps 15000 --seed 0 --out runs/cmp
"""

import argparse
import os

from colavoid.harness import (ExperimentConfig, METHODS, format_table,
                              run_experiment, summarize)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=15000,
                        help="perception-query budget per run")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--env", choices=("us", "rw"), default="us",
                        help="situation generator: uniform or random walk")
    parser.add_argument("--out", default="runs/comparison",
                        help="parent directory for the three run directories")
    args = parser.parse_args()

    trace_path = os.path.join(args.out, "trace.csv")
    run_dirs = []
    for method in METHODS:
        out_dir = os.path.join(args.out, method)
        cfg = ExperimentConfig(method=method, environment=args.env,
                               steps=args.steps, seed=args.seed,
                               out_dir=out_dir, trace_path=trace_path)
        metrics = run_experiment(cfg)
        run_dirs.append(out_dir)
        print(f"{method:>6}: accuracy={metrics.accuracy:.4f} "
              f"safety={metrics.safety_rate:.4f} "
              f"mean_time={metrics.mean_step_time:.3f} "
              f"repairs={metrics.repairs_accepted}/{metrics.repairs_signalled}")

    print()
    print(format_table(*summarize(run_dirs)))


if __name__ == "__main__":
    main()
