"""Run orchestration: configuration loading, the train / eval / compare /
replay-export entry points, metrics and manifest persistence.

Every run directory receives a ``run_manifest.json`` (written on success
and on failure), a metrics or comparison table in comma-separated text,
and checkpoints in the binary array container.  Data outputs are
deterministic functions of (config, seed); the manifest additionally
carries wall-clock timestamps.
"""

from __future__ import annotations

import csv
import dataclasses
import datetime
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import __version__, sac
from .dynamics import ActionLimits
from .env import EnvConfig, RandomizationSpec, SoftCaptureEnv, longest_streak, read_trace_csv, write_trace_csv
from .sac import TrainConfig, Trainer, deterministic_action, episode_seed, load_policy

_EVAL_STREAM = 4

REWARD_COLUMNS = ["step", "r_dist", "r_align", "r_surr", "r_contact", "reward", "contact_force"]
POSE_COLUMNS = [
    "step",
    "g_px", "g_py", "g_pz", "g_qw", "g_qx", "g_qy", "g_qz",
    "t_px", "t_py", "t_pz", "t_qw", "t_qx", "t_qy", "t_qz",
]


@dataclass
class CompareSpec:
    checkpoint_a: Optional[str] = None
    checkpoint_b: Optional[str] = None
    tactile_a: bool = True
    tactile_b: bool = False
    train_episodes: Optional[int] = None


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


def _build_dataclass(cls, data: Dict, label: str):
    if not isinstance(data, dict):
        raise ValueError(f"{label} section must be a mapping")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValueError(f"unknown {label} keys: {unknown}")
    nested = {"randomization": RandomizationSpec, "action_limits": ActionLimits,
              "env": EnvConfig, "train": TrainConfig, "compare": CompareSpec}
    kwargs = {}
    for key, value in data.items():
        if key in nested and isinstance(value, dict):
            value = _build_dataclass(nested[key], value, key)
        kwargs[key] = value
    return cls(**kwargs)


def load_config(mode: str, config_path: Optional[str] = None, overrides: Optional[Dict] = None) -> RunConfig:
    """Build a RunConfig from an optional YAML file plus flag overrides.

    Unknown keys and invalid values fail loudly; nothing is silently
    replaced by a default.  The learner's seed and episode count follow
    the top-level ``seed`` and ``episodes``, so a ``train:`` mapping that
    sets either is rejected.
    """
    import yaml

    data: Dict = {}
    if config_path:
        with open(config_path) as fh:
            loaded = yaml.safe_load(fh)
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
            data.setdefault("env", {})
            if not isinstance(data["env"], dict):
                raise ValueError("env section must be a mapping")
            data["env"]["tactile_enabled"] = value
        else:
            data[key] = value
    train = data.get("train")
    if isinstance(train, dict):
        for key in ("seed", "episodes"):
            if key in train:
                raise ValueError(f"train.{key} is not a setting of its own: "
                                 f"set the top-level '{key}' key instead")
    return _build_dataclass(RunConfig, data, "run config")


def config_snapshot(cfg: RunConfig) -> Dict:
    return dataclasses.asdict(cfg)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(out_dir: Path, manifest: Dict) -> None:
    path = out_dir / "run_manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run(cfg: RunConfig, body) -> int:
    """Shared run skeleton: make the output dir, time the body, and always
    leave a manifest behind, whether the body succeeded or not."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 1
    manifest = {
        "mode": cfg.mode,
        "seed": cfg.seed,
        "code_version": __version__,
        "config": config_snapshot(cfg),
        "started_at": _now(),
        "finished_at": None,
        "status": "running",
        "error": None,
        "final_summary": {},
    }
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
        _write_manifest(out, manifest)


# ----------------------------------------------------------------------
# train
def _parse_metrics_rows(path: Path) -> Tuple[List[str], List[List[str]]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _train(cfg: RunConfig, out: Path) -> Dict:
    """Train into ``out``: ``metrics.csv``, periodic and final checkpoints."""
    env = SoftCaptureEnv(cfg.env)
    if cfg.checkpoint:
        trainer = Trainer.load(cfg.checkpoint, env, cfg.train)
    else:
        trainer = Trainer(env, cfg.train)

    metrics_path = out / "metrics.csv"
    kept_rows: List[List[str]] = []
    if trainer.episode > 0 and metrics_path.exists():
        _, old_rows = _parse_metrics_rows(metrics_path)
        kept_rows = old_rows[: trainer.episode]
    returns = [float(r[3]) for r in kept_rows]
    successes = [int(r[8]) for r in kept_rows]

    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(sac.EpisodeMetrics.COLUMNS)
        for row in kept_rows:
            writer.writerow(row)
        fh.flush()
        for metrics in trainer.run():
            writer.writerow(metrics.to_row())
            fh.flush()
            returns.append(metrics.episode_return)
            successes.append(int(metrics.success))
            done = metrics.episode + 1
            if cfg.checkpoint_every and done % cfg.checkpoint_every == 0:
                trainer.save(out / f"checkpoint_ep{done:06d}.ckpt")
    trainer.save(out / "checkpoint_final.ckpt")

    tail = returns[-10:] if returns else []
    return {
        "episodes": trainer.episode,
        "env_steps": trainer.env_steps,
        "updates": trainer.updates,
        "mean_return": float(np.mean(returns)) if returns else None,
        "mean_return_last_10": float(np.mean(tail)) if tail else None,
        "success_rate": float(np.mean(successes)) if successes else None,
    }


def run_train(cfg: RunConfig) -> int:
    return _run(cfg, lambda out: _train(cfg, out))


# ----------------------------------------------------------------------
# eval
def _evaluate_policy(policy, env: SoftCaptureEnv, seed: int, episodes: int, out: Optional[Path]):
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
        success = env.is_success()
        if out is not None:
            write_trace_csv(out / f"episode_{ep:04d}_trace.csv", env.trace)
        n = env.config.episode_length
        rows.append({
            "episode": ep,
            "episode_return": total,
            "success": int(success),
            "mean_r_dist": float(terms[0]) / n,
            "mean_r_align": float(terms[1]) / n,
            "mean_r_surr": float(terms[2]) / n,
            "mean_r_contact": float(terms[3]) / n,
        })
    return rows


def _eval_summary(rows) -> Dict:
    if not rows:
        return {"episodes": 0}
    return {
        "episodes": len(rows),
        "success_rate": float(np.mean([r["success"] for r in rows])),
        "mean_return": float(np.mean([r["episode_return"] for r in rows])),
        "mean_r_dist": float(np.mean([r["mean_r_dist"] for r in rows])),
        "mean_r_align": float(np.mean([r["mean_r_align"] for r in rows])),
        "mean_r_surr": float(np.mean([r["mean_r_surr"] for r in rows])),
        "mean_r_contact": float(np.mean([r["mean_r_contact"] for r in rows])),
    }


def _write_eval_csv(path: Path, rows) -> None:
    cols = ["episode", "episode_return", "success",
            "mean_r_dist", "mean_r_align", "mean_r_surr", "mean_r_contact"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for r in rows:
            writer.writerow([r["episode"], repr(r["episode_return"]), r["success"],
                             repr(r["mean_r_dist"]), repr(r["mean_r_align"]),
                             repr(r["mean_r_surr"]), repr(r["mean_r_contact"])])


def _load_checked_policy(checkpoint: str, env: SoftCaptureEnv):
    policy, meta = load_policy(checkpoint)
    if int(meta["obs_dim"]) != env.observation_dim:
        raise ValueError(
            f"checkpoint observation width {meta['obs_dim']} (tactile={meta['tactile']}) "
            f"does not match the configured environment width {env.observation_dim} "
            f"(tactile={env.config.tactile_enabled}); fix the --tactile flag or the checkpoint"
        )
    if int(meta["action_dim"]) != env.action_dim:
        raise ValueError(
            f"checkpoint action width {meta['action_dim']} does not match "
            f"the environment action width {env.action_dim}"
        )
    return policy


def _eval(cfg: RunConfig, out: Path) -> Dict:
    """Evaluate ``cfg.checkpoint`` into ``out``: traces and ``eval_metrics.csv``."""
    env = SoftCaptureEnv(cfg.env)
    policy = _load_checked_policy(cfg.checkpoint, env)
    rows = _evaluate_policy(policy, env, cfg.seed, cfg.eval_episodes, out)
    _write_eval_csv(out / "eval_metrics.csv", rows)
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

        cols = ["arm", "tactile", "episodes", "success_rate", "mean_return",
                "mean_r_dist", "mean_r_align", "mean_r_surr", "mean_r_contact"]

        def cell(value):
            if value is None:
                return ""
            return repr(value) if isinstance(value, float) else value

        with open(out / "comparison.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in table:
                writer.writerow([cell(row.get(c)) for c in cols])
        for row in table:
            print("  ".join(f"{c}={row.get(c)}" for c in cols))
        return {"arms": table}

    return _run(cfg, body)


# ----------------------------------------------------------------------
# replay-export
def run_replay_export(cfg: RunConfig) -> int:
    def body(out: Path) -> Dict:
        header, rows = read_trace_csv(cfg.trace)
        missing = [c for c in REWARD_COLUMNS if c not in header]
        if missing:
            raise ValueError(f"{cfg.trace}: missing required columns {missing}")
        idx = {c: header.index(c) for c in header}
        if not rows:
            print(f"warning: {cfg.trace} holds no timestep rows", file=sys.stderr)

        stem = Path(cfg.trace).stem
        rewards_path = out / f"{stem}_rewards.csv"
        with open(rewards_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(REWARD_COLUMNS)
            for row in rows:
                writer.writerow([int(row[idx["step"]])] +
                                [repr(float(row[idx[c]])) for c in REWARD_COLUMNS[1:]])

        have_poses = all(c in header for c in POSE_COLUMNS)
        poses_path = None
        if have_poses:
            poses_path = out / f"{stem}_poses.csv"
            with open(poses_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(POSE_COLUMNS)
                for row in rows:
                    writer.writerow([int(row[idx["step"]])] +
                                    [repr(float(row[idx[c]])) for c in POSE_COLUMNS[1:]])

        rewards = [float(row[idx["reward"]]) for row in rows]
        threshold = cfg.env.success_reward_threshold
        streak = longest_streak(rewards, threshold)
        summary = {
            "rows": len(rows),
            "success_threshold": threshold,
            "longest_success_streak": streak,
            "streak_reached": bool(streak >= cfg.env.success_streak_length),
            "rewards_file": str(rewards_path),
            "poses_file": str(poses_path) if poses_path else None,
        }
        with open(out / f"{stem}_summary.json", "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
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
