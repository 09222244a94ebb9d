"""Run orchestration: configuration loading, the train / eval / compare /
replay-export entry points, metrics and manifest persistence.

Every run directory receives a ``run_manifest.json`` (written at the
start and again on success or failure), a metrics or comparison table in
comma-separated text, and checkpoints in the binary array container.
Data outputs are deterministic functions of (config, seed); the manifest
additionally carries wall-clock timestamps.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
import os
import re
import sys
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import yaml

from . import __version__
from .checks import check_fields, field_hints
from .env import (SUCCESS_REWARD_THRESHOLD, TRACE_POSE_COLUMNS, TRACE_REWARD_COLUMNS, EnvConfig,
                  SoftCaptureEnv, longest_streak, read_table, table_row, write_table, write_trace_csv)
from .files import link, replacing
from .sac import EpisodeMetrics, TrainConfig, Trainer, deterministic_action, episode_seed

_EVAL_STREAM = 4

# ``eval_metrics.csv``: one row per evaluation episode; the mean_r_* columns
# are per-step means of the reward terms.
EVAL_COLUMNS = ("episode", "episode_return", "success",
                "mean_r_dist", "mean_r_align", "mean_r_surr", "mean_r_contact")
_TERM_MEANS = EVAL_COLUMNS[3:]
# ``comparison.csv``: one row per arm, holding its eval summary.
COMPARE_COLUMNS = ("arm", "tactile", "episodes", "success_rate", "mean_return", *_TERM_MEANS)


@dataclass
class CompareSpec:
    checkpoint_a: Optional[str] = None
    checkpoint_b: Optional[str] = None
    tactile_a: bool = True
    tactile_b: bool = False
    train_episodes: Optional[int] = None

    def __post_init__(self):
        check_fields(self)
        if self.train_episodes is not None and self.train_episodes < 0:
            raise ValueError(f"train_episodes must be >= 0, got {self.train_episodes}")


@dataclass
class RunConfig:
    mode: str = "train"
    seed: int = 0
    out_dir: str = "runs/run"
    checkpoint: Optional[str] = None
    episodes: int = 100
    eval_episodes: int = 20
    checkpoint_every: int = 100
    trace: Optional[str] = None
    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    compare: CompareSpec = field(default_factory=CompareSpec)

    def __post_init__(self):
        check_fields(self)
        if self.mode not in ("train", "eval", "compare", "replay-export"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.episodes < 0 or self.eval_episodes < 0 or self.checkpoint_every < 0:
            raise ValueError("episode counts and checkpoint cadence must be >= 0")
        if self.mode == "eval" and not self.checkpoint:
            raise ValueError("eval mode needs --checkpoint")
        if self.mode == "compare" and self.checkpoint:
            raise ValueError("compare mode takes no top-level checkpoint: set "
                             "compare.checkpoint_a / compare.checkpoint_b to evaluate saved arms")
        if self.mode == "replay-export" and not self.trace:
            raise ValueError("replay-export mode needs --trace")
        # The run-level seed and episode count are the only source of the
        # learner's, so every construction and ``replace`` stays coherent.
        self.train = replace(self.train, seed=self.seed, episodes=self.episodes)


class _StrictLoader(yaml.SafeLoader):
    """A YAML loader that refuses a key given twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            if isinstance(key_node, yaml.ScalarNode) and key_node.tag != "tag:yaml.org,2002:merge":
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(None, None, f"duplicate key {key!r}",
                                                            key_node.start_mark)
                seen.add(key)
        return super().construct_mapping(node, deep)


def _build_dataclass(cls, data: Dict, label: str = ""):
    """Build ``cls`` from the mapping ``data``, each nested section from its
    field's type hint.  ``label`` is the section's dotted name, empty at the
    top level; it prefixes any ``ValueError`` the section raises."""
    where = label or "run config"
    if not isinstance(data, dict):
        raise ValueError(f"{where} section must be a mapping")
    hints = dict(field_hints(cls))
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    kwargs = {key: _build_dataclass(hints[key], value, f"{label}.{key}" if label else key)
              if dataclasses.is_dataclass(hints[key]) else value
              for key, value in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not label:
            raise
        raise ValueError(f"{label}.{exc}") from exc


def _merged(base: Dict, override: Dict, label: str = "") -> Dict:
    """A copy of ``base`` with the keys of ``override``; a section given in
    both is merged key by key, so an override replaces only the keys it
    names.  Neither mapping is changed."""
    merged = dict(base)
    for key, value in override.items():
        name = f"{label}.{key}" if label else key
        if isinstance(value, dict) and key in merged:
            if not isinstance(merged[key], dict):
                raise ValueError(f"{name} section must be a mapping")
            value = _merged(merged[key], value, name)
        merged[key] = value
    return merged


def load_config(mode: str, config_path: Optional[str] = None, overrides: Optional[Dict] = None) -> RunConfig:
    """Build a RunConfig from an optional YAML file plus flag overrides.

    An override section (``env``, ``train``, ``compare``) is merged into
    the file's key by key.  Unknown keys and invalid values fail loudly;
    nothing is silently replaced by a default.  The learner's seed and
    episode count follow the top-level ``seed`` and ``episodes``, so a
    ``train:`` mapping that sets either is rejected.
    """
    data: Dict = {}
    if config_path:
        try:
            with open(config_path, encoding="utf-8") as fh:
                loaded = yaml.load(fh, Loader=_StrictLoader)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ValueError(f"{config_path}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ValueError(f"{config_path}: top level must be a mapping")
        data = loaded
    data["mode"] = mode
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "tactile":
            key, value = "env", {"tactile_enabled": value}
        data = _merged(data, {key: value})
    train = data.get("train")
    if isinstance(train, dict):
        for key in ("seed", "episodes"):
            if key in train:
                raise ValueError(f"train.{key} is not a setting of its own: "
                                 f"set the top-level '{key}' key instead")
    return _build_dataclass(RunConfig, data)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_json(path: Path, obj: Dict) -> None:
    with replacing(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run(cfg: RunConfig, body) -> int:
    """Shared run skeleton: make the output dir, time the body, and always
    leave a manifest behind: ``running`` from the start, so that a run
    killed part-way still has one, then the body's outcome."""
    out = Path(cfg.out_dir)
    manifest = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "code_version": __version__,
        "config": dataclasses.asdict(cfg),
        "started_at": _now(),
        "finished_at": None,
        "status": "running",
        "error": None,
        "final_summary": {},
    }
    try:
        out.mkdir(parents=True, exist_ok=True)
        _write_json(out / "run_manifest.json", manifest)
    except OSError as exc:
        print(f"error: cannot write to output directory {out}: {exc}", file=sys.stderr)
        return 1
    try:
        manifest["final_summary"] = body(out) or {}
        manifest["status"] = "success"
        return 0
    except Exception as exc:  # noqa: BLE001 - report, record, fail cleanly
        manifest["status"] = "failed"
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        manifest["finished_at"] = _now()
        _write_json(out / "run_manifest.json", manifest)


# ----------------------------------------------------------------------
# train
def _train(cfg: RunConfig, out: Path) -> Dict:
    """Train into ``out``: ``metrics.csv``, periodic checkpoints and policy
    snapshots, and the final checkpoint.

    A periodic checkpoint and its policy snapshot are written only for an
    episode before the run's last, so each state is saved once: the last
    lives in ``checkpoint_final.ckpt``, which also extends a finished run.
    Of the periodic checkpoints only the two newest are kept."""
    env = SoftCaptureEnv(cfg.env)
    final = out / "checkpoint_final.ckpt"
    if cfg.checkpoint:
        trainer = Trainer.load(cfg.checkpoint, env, cfg.train)
    else:
        trainer = Trainer(env, cfg.train)
    # Extending a run in place: before its final checkpoint is replaced,
    # that state takes the periodic name an uninterrupted run gives it, as
    # a second name of the same file, and gets its policy snapshot, so no
    # state is lost and the directory ends as the uninterrupted run's would.
    start = trainer.episode
    in_place = bool(cfg.checkpoint) and final.exists() and os.path.samefile(cfg.checkpoint, final)
    if in_place and cfg.checkpoint_every and start % cfg.checkpoint_every == 0 and 0 < start < cfg.episodes:
        _save_periodic(trainer, out, lambda path: link(final, path))

    metrics_path = out / "metrics.csv"
    columns = [f.name for f in fields(EpisodeMetrics)]
    # A resumed run keeps the rows of the episodes its checkpoint holds,
    # checked and written back as read, so the table it keeps must have
    # this run's columns.  Resumed into a directory without them, its table
    # and summary cover only the episodes it runs.
    kept_rows: List[List[str]] = []
    if trainer.episode > 0 and metrics_path.exists():
        _, kept_rows = read_table(metrics_path, columns, limit=trainer.episode)
    if len(kept_rows) < trainer.episode:
        print(f"warning: {metrics_path} holds {len(kept_rows)} of the {trainer.episode} episodes "
              f"the checkpoint has run; the summary's means cover only the episodes in it",
              file=sys.stderr)
    returns = [float(r[columns.index("episode_return")]) for r in kept_rows]
    successes = [float(r[columns.index("success")]) for r in kept_rows]

    # The kept rows replace the old file whole, so a crash never leaves it
    # without them; the new episodes are then appended.
    write_table(metrics_path, columns, kept_rows)
    with open(metrics_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        for metrics in trainer.run():
            writer.writerow(table_row(astuple(metrics)))
            fh.flush()
            returns.append(metrics.episode_return)
            successes.append(int(metrics.success))
            done = metrics.episode + 1
            if cfg.checkpoint_every and done % cfg.checkpoint_every == 0 and done < cfg.episodes:
                _save_periodic(trainer, out, trainer.save)
    # Resumed in place with no episode to run, the final checkpoint already
    # holds this state; rewriting it would copy the whole replay buffer.
    if not (in_place and trainer.episode == start):
        trainer.save(final)

    tail = returns[-10:] if returns else []
    return {
        "episodes": trainer.episode,
        "summarized_episodes": len(returns),
        "env_steps": trainer.env_steps,
        "updates": trainer.updates,
        "mean_return": float(np.mean(returns)) if returns else None,
        "mean_return_last_10": float(np.mean(tail)) if tail else None,
        "success_rate": float(np.mean(successes)) if successes else None,
    }


_PERIODIC = re.compile(r"checkpoint_ep(\d+)\.ckpt")


def _save_periodic(trainer: Trainer, out: Path, save) -> None:
    """Write the policy snapshot of ``trainer``'s episode, then its periodic
    checkpoint through ``save``.  Once that is complete, delete every
    periodic checkpoint in ``out`` older than the two newest up to it."""
    episode = trainer.episode
    trainer.save_policy(out / f"policy_ep{episode:06d}.ckpt")
    save(out / f"checkpoint_ep{episode:06d}.ckpt")
    older = sorted((int(m.group(1)), m.group(0)) for m in map(_PERIODIC.fullmatch, os.listdir(out))
                   if m and int(m.group(1)) < episode)
    for _, name in older[:-1]:
        (out / name).unlink()


def run_train(cfg: RunConfig) -> int:
    return _run(cfg, lambda out: _train(cfg, out))


# ----------------------------------------------------------------------
# eval
def _evaluate_policy(policy, env: SoftCaptureEnv, seed: int, episodes: int, out: Path):
    rows = []
    for ep in range(episodes):
        obs = env.reset(episode_seed(seed, ep, stream=_EVAL_STREAM))
        done = False
        total = 0.0
        terms = np.zeros(4)
        while not done:
            result = env.step(deterministic_action(policy, obs))
            obs = result.obs
            done = result.done
            total += result.reward
            terms += np.array(result.terms)
        write_trace_csv(out / f"episode_{ep:04d}_trace.csv", env.trace)
        rows.append((ep, total, int(env.is_success()), *(terms / env.config.episode_length).tolist()))
    return rows


def _eval_summary(rows) -> Dict:
    if not rows:
        return {"episodes": 0}
    cols = dict(zip(EVAL_COLUMNS, zip(*rows)))
    summary = {"episodes": len(rows), "success_rate": float(np.mean(cols["success"])),
               "mean_return": float(np.mean(cols["episode_return"]))}
    summary.update((c, float(np.mean(cols[c]))) for c in _TERM_MEANS)
    return summary


def _eval(cfg: RunConfig, out: Path) -> Dict:
    """Evaluate ``cfg.checkpoint`` into ``out``: traces and ``eval_metrics.csv``."""
    env = SoftCaptureEnv(cfg.env)
    policy = Trainer.load_policy(cfg.checkpoint, env)
    rows = _evaluate_policy(policy, env, cfg.seed, cfg.eval_episodes, out)
    write_table(out / "eval_metrics.csv", EVAL_COLUMNS, rows)
    return _eval_summary(rows)


def run_eval(cfg: RunConfig) -> int:
    return _run(cfg, lambda out: _eval(cfg, out))


# ----------------------------------------------------------------------
# compare
def run_compare(cfg: RunConfig) -> int:
    """Matched-seed tactile vs non-tactile comparison.

    Both arms share the evaluation seeds (hence identical randomization
    streams); only the tactile observation channel differs.  An arm with
    no checkpoint trains through the ``train`` body into ``arm_<label>/``;
    every arm is evaluated through the ``eval`` body.  No ordering between
    the arms is asserted, the table just reports both."""

    def body(out: Path) -> Dict:
        arms = [
            ("a", cfg.compare.tactile_a, cfg.compare.checkpoint_a),
            ("b", cfg.compare.tactile_b, cfg.compare.checkpoint_b),
        ]
        train_episodes = cfg.compare.train_episodes
        if train_episodes is None:
            train_episodes = cfg.episodes
        table = []
        for label, tactile, checkpoint in arms:
            arm_out = out / f"arm_{label}"
            arm_out.mkdir(parents=True, exist_ok=True)
            arm = replace(cfg, env=replace(cfg.env, tactile_enabled=tactile))
            if checkpoint is None:
                _train(replace(arm, mode="train", episodes=train_episodes), arm_out)
                checkpoint = str(arm_out / "checkpoint_final.ckpt")
            summary = _eval(replace(arm, mode="eval", checkpoint=checkpoint), arm_out)
            summary.update({"arm": label, "tactile": int(tactile)})
            table.append(summary)
        write_table(out / "comparison.csv", COMPARE_COLUMNS,
                    ([row.get(c) for c in COMPARE_COLUMNS] for row in table))
        for row in table:
            print("  ".join(f"{c}={row.get(c)}" for c in COMPARE_COLUMNS))
        return {"arms": table}

    return _run(cfg, body)


# ----------------------------------------------------------------------
# replay-export
def run_replay_export(cfg: RunConfig) -> int:
    def body(out: Path) -> Dict:
        header, rows = read_table(cfg.trace)
        reward_columns = ("step", *TRACE_REWARD_COLUMNS)
        pose_columns = ("step", *TRACE_POSE_COLUMNS)
        missing = [c for c in reward_columns if c not in header]
        if missing:
            raise ValueError(f"{cfg.trace}: missing required columns {missing}")
        idx = {c: header.index(c) for c in header}
        if not rows:
            print(f"warning: {cfg.trace} holds no timestep rows", file=sys.stderr)

        def export(path: Path, columns) -> Path:
            write_table(path, columns, ([row[idx[c]] for c in columns] for row in rows))
            return path

        stem = Path(cfg.trace).stem
        rewards_path = export(out / f"{stem}_rewards.csv", reward_columns)
        poses_path = None
        if all(c in header for c in pose_columns):
            poses_path = export(out / f"{stem}_poses.csv", pose_columns)

        rewards = [float(row[idx["reward"]]) for row in rows]
        threshold = SUCCESS_REWARD_THRESHOLD
        streak = longest_streak(rewards, threshold)
        summary = {
            "rows": len(rows),
            "success_threshold": threshold,
            "longest_success_streak": streak,
            "streak_reached": bool(streak >= cfg.env.success_streak_length),
            "rewards_file": str(rewards_path),
            "poses_file": str(poses_path) if poses_path else None,
        }
        _write_json(out / f"{stem}_summary.json", summary)
        print(f"longest success streak: {streak} "
              f"(threshold {threshold}, flagged at {cfg.env.success_streak_length})")
        return summary

    return _run(cfg, body)


def run(cfg: RunConfig) -> int:
    dispatch = {
        "train": run_train,
        "eval": run_eval,
        "compare": run_compare,
        "replay-export": run_replay_export,
    }
    return dispatch[cfg.mode](cfg)
