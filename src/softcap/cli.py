"""Command-line entry point: softcap {train, eval, compare, replay-export}."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import harness


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="YAML run configuration file")
    parser.add_argument("--seed", type=int, help="master seed for the run")
    parser.add_argument("--tactile", choices=("on", "off"),
                        help="enable or disable the contact-force observation entry")
    parser.add_argument("--episodes", type=int, help="episode count for this mode")
    parser.add_argument("--checkpoint", help="checkpoint file to load or resume from")
    parser.add_argument("--out", dest="out_dir", help="output directory for this run")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softcap",
        description="Train and evaluate soft-capture agents in the bundled simulator.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    p_train = sub.add_parser("train", help="train an agent, writing metrics and checkpoints")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint with the deterministic policy")
    p_cmp = sub.add_parser("compare", help="matched-seed tactile vs non-tactile comparison")
    p_exp = sub.add_parser("replay-export", help="turn an episode trace into plot-ready series")
    p_exp.add_argument("--trace", help="episode trace file to export")
    for p in (p_train, p_eval, p_cmp, p_exp):
        _add_common_flags(p)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    # --episodes counts training episodes for train, evaluation episodes
    # for eval and compare.
    episodes_key = "eval_episodes" if args.mode in ("eval", "compare") else "episodes"
    overrides = {
        "seed": args.seed,
        episodes_key: args.episodes,
        "checkpoint": args.checkpoint,
        "out_dir": args.out_dir,
        "trace": getattr(args, "trace", None),
    }
    if args.tactile is not None:
        overrides["tactile"] = args.tactile == "on"
    try:
        cfg = harness.load_config(args.mode, args.config, overrides)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return harness.run(cfg)


if __name__ == "__main__":
    sys.exit(main())
