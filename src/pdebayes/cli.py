"""Command line entry point.

    pdebayes solve --config PATH [--seed S] [--chains M] [--samples N]
                   [--method NAME] [--output DIR]

Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .config import METHODS, ConfigError, ExperimentConfig, load_config, validate
from .driver import StageError, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# Override flag -> (ExperimentConfig field, argparse options).
_OVERRIDES = {
    "seed": ("mcmc_seed", {"type": int}),
    "chains": ("mcmc_chains", {"type": int}),
    "samples": ("mcmc_samples", {"type": int}),
    "method": ("mcmc_method", {"choices": METHODS}),
    "output": ("output_dir", {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdebayes",
        description="Bayesian inversion for PDE models with geometry-aware MCMC")
    sub = parser.add_subparsers(dest="command", required=True)
    solve = sub.add_parser("solve", help="run the full inversion pipeline")
    solve.add_argument("--config", help="path to the experiment configuration")
    for flag, (name, options) in _OVERRIDES.items():
        solve.add_argument(f"--{flag}", help=f"override {name.replace('_', '.', 1)}",
                           **options)
    solve.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")

    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        for flag, (name, _) in _OVERRIDES.items():
            if getattr(args, flag) is not None:
                setattr(cfg, name, getattr(args, flag))
        validate(cfg)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        entries = run_experiment(cfg)
    except StageError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    print(f"report written to {cfg.output_dir}/report.txt "
          f"(mpsrf={entries['mpsrf']:.4g}, ess_avg={entries['ess_avg']:.4g})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
