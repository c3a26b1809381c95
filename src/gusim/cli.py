"""Command-line entry point: run the figure sweeps or a custom experiment
from a YAML config and write CSV results with a run manifest."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace

from . import harness
from .errors import ConfigurationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gusim",
        description="Monte-Carlo experiments for geometry-based user scheduling",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    choices = {f.name: f.metadata["check"][1] for f in fields(harness.ExperimentConfig)
               if "check" in f.metadata}   # plain.checked's (bound, choices) per field
    for name, help_text in (
        ("fig2", "sum-rate vs. total transmit power"),
        ("fig3", "channel-estimation load vs. antenna count"),
        ("fig4", "sum-rate vs. localization-error scale"),
        ("run", "custom sweep straight from the config"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="YAML experiment config (defaults used if omitted)")
        p.add_argument("--out", required=True, help="output CSV path")
        if name == "fig3":   # pure arithmetic: no trials, seeds or rates
            continue
        p.add_argument("--seed", type=int, dest="base_seed", help="override the base seed")
        p.add_argument("--trials", type=int, help="override the trial count")
        p.add_argument("--mode", choices=choices["mode"], help="sum-rate noise model")
        p.add_argument("--gus-variant", choices=choices["gus_variant"],
                       help="reference row for the correlation step")
    return parser


def _load(args) -> harness.ExperimentConfig:
    config = harness.load_config(args.config) if args.config \
        else harness.ExperimentConfig()
    overrides = {k: getattr(args, k, None) for k in ("base_seed", "trials", "mode", "gus_variant")}
    return replace(config, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sweeps = {"fig2": harness.figure2_sweep, "fig3": harness.figure3_load,
                  "fig4": harness.figure4_robustness, "run": harness.run_sweep}
        result = sweeps[args.command](_load(args), args.out)
    except ConfigurationError as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    for c in [c for c in getattr(result, "cells", ()) if c.trials_used == 0]:   # fig3: none
        print(f"{parser.prog}: warning: cell {c.algorithm} K_s={c.ks} P_dbm={c.p_dbm} omega="
              f"{c.omega} has no usable trial ({c.excluded} excluded): mean nan", file=sys.stderr)
    print(f"wrote {args.out} (+ manifest)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
