"""Command-line entry point: softcap {train, eval, compare, replay-export}."""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import harness


# Every flag, and the flags each mode reads; a mode accepts no other.
_FLAGS = {
    "config": (("--config",), {"help": "YAML run configuration file"}),
    "seed": (("--seed",), {"type": int, "help": "master seed for the run"}),
    "tactile": (("--tactile",), {"choices": ("on", "off"),
                                 "help": "enable or disable the contact-force observation entry"}),
    "episodes": (("--episodes",), {"type": int, "help": "episode count for this mode"}),
    "checkpoint": (("--checkpoint",), {"help": "checkpoint file to load or resume from"}),
    "trace": (("--trace",), {"help": "episode trace file to export"}),
    "out_dir": (("--out",), {"dest": "out_dir", "help": "output directory for this run"}),
}
_MODES = {
    "train": ("train an agent, writing metrics and checkpoints",
              ("config", "seed", "tactile", "episodes", "checkpoint", "out_dir")),
    "eval": ("evaluate a checkpoint with the deterministic policy",
             ("config", "seed", "tactile", "episodes", "checkpoint", "out_dir")),
    # Each arm sets its own tactile flag and checkpoint in the config's
    # compare section.
    "compare": ("matched-seed tactile vs non-tactile comparison",
                ("config", "seed", "episodes", "out_dir")),
    "replay-export": ("turn an episode trace into plot-ready series",
                      ("config", "trace", "out_dir")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softcap",
        description="Train and evaluate soft-capture agents in the bundled simulator.",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (help_text, flags) in _MODES.items():
        p = sub.add_parser(mode, help=help_text)
        for name in flags:
            args, kwargs = _FLAGS[name]
            p.add_argument(*args, **kwargs)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    # --episodes counts training episodes for train, evaluation episodes
    # for eval and compare.
    episodes_key = "eval_episodes" if args.mode in ("eval", "compare") else "episodes"
    overrides = {key: getattr(args, key, None) for key in ("seed", "checkpoint", "out_dir", "trace")}
    overrides[episodes_key] = getattr(args, "episodes", None)
    if getattr(args, "tactile", None) is not None:
        overrides["tactile"] = args.tactile == "on"
    try:
        cfg = harness.load_config(args.mode, args.config, overrides)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return harness.run(cfg)


if __name__ == "__main__":
    sys.exit(main())
