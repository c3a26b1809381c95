"""Command-line entry point: run the figure sweeps or a custom experiment
from a YAML config and write CSV results with a run manifest."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from . import harness
from .errors import ConfigurationError

# subcommand: (sweep, help), in the order the parser lists them
COMMANDS = {"fig2": (harness.figure2_sweep, "sum-rate vs. total transmit power"),
            "fig3": (harness.figure3_load, "channel-estimation load vs. antenna count"),
            "fig4": (harness.figure4_robustness, "sum-rate vs. localization-error scale"),
            "run": (harness.run_sweep, "custom sweep straight from the config")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gusim",
        description="Monte-Carlo experiments for geometry-based user scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML experiment config (defaults used if omitted)")
        p.add_argument("--out", required=True, help="output CSV path")
        if name == "fig3":   # pure arithmetic: no trials, seeds or rates
            continue
        p.add_argument("--seed", type=int, dest="base_seed", help="override the base seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--mode", choices=harness.SUM_RATE_MODES, help="sum-rate noise model")
        p.add_argument("--gus-variant", choices=harness.GUS_VARIANTS,
                       help="reference row for the correlation step")
    return parser


def _load(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config) if args.config else harness.ExperimentConfig()
    return replace(config, **{f.name: getattr(args, f.name) for f in fields(config)   # flag dests
                              if getattr(args, f.name, None) is not None})


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = COMMANDS[args.command][0](_load(args), args.out)
    except ConfigurationError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    for c in [c for c in getattr(result, "cells", ()) if c.trials_used == 0]:   # fig3: none
        print(f"{parser.prog}: warning: cell {c.algorithm} K_s={c.ks} P_dbm={c.p_dbm} omega="
              f"{c.omega} has no usable trial ({c.excluded} excluded): mean nan", file=sys.stderr)
    print(f"wrote {args.out} (+ manifest)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
