import csv
import json
import os
import re
import signal
import subprocess
import sys
import time
import typing
from dataclasses import astuple, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from softcap import cli, harness, sac
from softcap.checks import field_hints
from softcap.dynamics import ActionLimits
from softcap.env import EnvConfig, RandomizationSpec, SoftCaptureEnv, table_row
from softcap.harness import RunConfig, load_config, run_compare, run_eval, run_replay_export, run_train


def small_run_dict(out_dir, episodes=2, seed=0, **extra):
    data = {
        "seed": seed,
        "out_dir": str(out_dir),
        "episodes": episodes,
        "eval_episodes": 2,
        "checkpoint_every": 100,
        "env": {
            "episode_length": 40,
            "success_streak_length": 20,
        },
        "train": {
            "batch_size": 32,
            "warmup_steps": 60,
        },
    }
    data.update(extra)
    return data


def make_config(mode, out_dir, **kwargs) -> RunConfig:
    data = small_run_dict(out_dir, **kwargs)
    data["mode"] = mode
    return harness._build_dataclass(RunConfig, data)


# ---------------------------------------------------------------- config
def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(small_run_dict(tmp_path / "out", episodes=5)))
    cfg = load_config("train", str(path), {"seed": 9, "tactile": True})
    assert cfg.mode == "train"
    assert cfg.seed == 9
    assert cfg.episodes == 5
    assert cfg.env.tactile_enabled is True
    assert cfg.train.seed == 9
    assert cfg.train.episodes == 5


def test_load_config_leaves_the_callers_mappings_alone():
    env = {"episode_length": 40, "success_streak_length": 20}
    cfg = load_config("train", None, {"env": env, "tactile": True})
    assert cfg.env.tactile_enabled is True and cfg.env.episode_length == 40
    assert env == {"episode_length": 40, "success_streak_length": 20}


def test_load_config_merges_override_sections_key_by_key(tmp_path):
    path = tmp_path / "run.yaml"
    data = small_run_dict(tmp_path / "out")
    data["env"].update(tactile_enabled=True, randomization={"target_mass_range": [1.0, 2.0]})
    path.write_text(yaml.safe_dump(data))
    overrides = {"env": {"episode_length": 30, "randomization": {"obs_position_noise": 0.01}},
                 "train": {"batch_size": 16}}
    cfg = load_config("train", str(path), overrides)
    assert cfg.env.tactile_enabled is True and cfg.env.success_streak_length == 20
    assert cfg.env.episode_length == 30
    assert list(cfg.env.randomization.target_mass_range) == [1.0, 2.0]
    assert cfg.env.randomization.obs_position_noise == 0.01
    assert (cfg.train.batch_size, cfg.train.warmup_steps) == (16, 60)
    assert overrides == {"env": {"episode_length": 30, "randomization": {"obs_position_noise": 0.01}},
                         "train": {"batch_size": 16}}
    path.write_text(yaml.safe_dump({"env": [1, 2]}))
    with pytest.raises(ValueError, match="^env section must be a mapping$"):
        load_config("train", str(path), {"env": {"episode_length": 30}})


def test_run_config_owns_train_seed_and_episodes(tmp_path):
    cfg = make_config("train", tmp_path / "run", episodes=4, seed=6)
    assert (cfg.train.seed, cfg.train.episodes) == (6, 4)
    cfg = replace(cfg, episodes=9, seed=2)
    assert (cfg.train.seed, cfg.train.episodes) == (2, 9)


@pytest.mark.parametrize("key", ["seed", "episodes"])
def test_load_config_rejects_train_seed_and_episodes(tmp_path, key):
    data = small_run_dict(tmp_path / "out")
    data["train"][key] = 50
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(data))
    with pytest.raises(ValueError, match=f"train.{key}.*top-level '{key}'"):
        load_config("train", str(path))


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"episodez": 3}))
    with pytest.raises(ValueError, match="episodez"):
        load_config("train", str(path))
    # The last three were settings once; a config that still sets one fails.
    for key, value in [("bogus_field", 1), ("goal_orientation_offset", [0.0, 0.0, 0.4]),
                       ("gripper_start_position", [0.0, 0.1, 0.0]), ("success_reward_threshold", 2.5)]:
        path.write_text(yaml.safe_dump({"env": {key: value}}))
        with pytest.raises(ValueError, match=f"^unknown env keys: \\['{key}'\\]$"):
            load_config("train", str(path))


def test_load_config_rejects_invalid_values(tmp_path):
    nan, inf = float("nan"), float("inf")
    path = tmp_path / "run.yaml"
    for data, named in [
        ({"env": {"action_noise_fraction": 1.5}}, "action_noise_fraction"),
        # A NaN margin would pass every range check and zero r_surr.
        ({"env": {"containment_margin": nan}}, "env.containment_margin must be finite float, got nan"),
        ({"env": {"control_dt": inf}}, "env.control_dt must be finite float, got inf"),
        ({"env": {"action_limits": {"max_translation_step": nan}}},
         "env.action_limits.max_translation_step must be finite float, got nan"),
        ({"env": {"target_half_extents": [0.05, -inf, 0.05]}}, "env.target_half_extents must be 3 numbers"),
        ({"env": {"randomization": {"target_mass_range": [nan, 2.0]}}},
         "env.randomization.target_mass_range must be 2 numbers"),
        ({"train": {"target_entropy": nan}}, "train.target_entropy must be finite float, got nan"),
        ({"train": {"initial_log_alpha": inf}}, "train.initial_log_alpha must be finite float, got inf"),
        ({"train": {"learning_rate": -0.001}}, "learning_rate must be > 0, got -0.001"),
        ({"train": {"learning_rate": 0}}, "learning_rate must be > 0, got 0"),
    ]:
        path.write_text(yaml.safe_dump(data))
        with pytest.raises(ValueError, match=re.escape(named)):
            load_config("train", str(path))
    for learning_rate in (-0.001, 0.0):
        with pytest.raises(ValueError, match="learning_rate must be > 0"):
            sac.TrainConfig(learning_rate=learning_rate)
    # Built directly, outside load_config, each config refuses them too.
    for build, named in [
        (lambda: sac.TrainConfig(learning_rate=nan), "learning_rate must be finite float, got nan"),
        (lambda: EnvConfig(containment_margin=nan, control_dt=inf), "control_dt must be finite float, got inf"),
        (lambda: sac.TrainConfig(target_entropy=nan, initial_log_alpha=inf),
         "target_entropy must be finite float, got nan"),
        (lambda: RandomizationSpec(obs_position_noise=nan), "obs_position_noise must be finite float, got nan"),
        (lambda: ActionLimits(max_translation_step=inf), "max_translation_step must be finite float, got inf"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
            build()


def _config_classes(cls=RunConfig):
    """``cls`` and every config dataclass reachable through its type hints."""
    found = [cls]
    for _, hint in field_hints(cls):
        if is_dataclass(hint):
            found += [c for c in _config_classes(hint) if c not in found]
    return found


def _wrong_kind(hint):
    """A value of another kind than ``hint`` admits."""
    if is_dataclass(hint):
        return {}
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return [0.5] * (len(args) - 1) + [True]  # the right length, a bool in a number slot
    if typing.get_origin(hint) is typing.Union:
        return _wrong_kind(args[0])
    return {bool: "off", int: 2.5, float: "0.5", str: 5}[hint]


CONFIG_FIELDS = [pytest.param(cls, name, hint, id=f"{cls.__name__}.{name}")
                 for cls in _config_classes() for name, hint in field_hints(cls)]


def test_config_walk_reaches_every_config_class():
    assert {p.values[0].__name__ for p in CONFIG_FIELDS} == {
        "RunConfig", "EnvConfig", "ActionLimits", "RandomizationSpec", "TrainConfig", "CompareSpec"}


@pytest.mark.parametrize("cls, name, hint", CONFIG_FIELDS)
def test_every_config_field_refuses_a_value_of_the_wrong_kind(cls, name, hint):
    with pytest.raises(ValueError, match=f"^{name} must be "):
        cls(**{name: _wrong_kind(hint)})


@pytest.mark.parametrize("build, named", [
    (lambda: EnvConfig(tactile_enabled="off"), "tactile_enabled must be bool, got 'off'"),
    (lambda: EnvConfig(episode_length=500.5), "episode_length must be int, got 500.5"),
    (lambda: sac.TrainConfig(batch_size=64.5), "batch_size must be int, got 64.5"),
    (lambda: RunConfig(seed=1.5), "seed must be int, got 1.5"),
    (lambda: harness.CompareSpec(tactile_a="no"), "tactile_a must be bool, got 'no'"),
    (lambda: RandomizationSpec(target_mass_range=(1.0,)), "target_mass_range must be 2 numbers, got (1.0,)"),
    (lambda: ActionLimits(max_translation_step="0.01"), "max_translation_step must be finite float, got '0.01'"),
])
def test_config_built_directly_refuses_wrong_kinds(build, named):
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        build()


def test_config_check_converts_nothing():
    cfg = EnvConfig(target_half_extents=[0.05, 0.1, 0.05],
                    randomization=RandomizationSpec(target_mass_range=[1, 2]))
    assert cfg.target_half_extents == [0.05, 0.1, 0.05]
    assert cfg.randomization.target_mass_range == [1, 2]


def test_negative_seed_refused_at_construction():
    for build in (lambda: sac.TrainConfig(seed=-1), lambda: RunConfig(seed=-1)):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            build()


def test_load_config_scalar_type_rules(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"train": {"learning_rate": 1, "target_entropy": None}}))
    assert load_config("train", str(path)).train.learning_rate == 1  # a float field takes an int
    path.write_text(yaml.safe_dump({"episodes": True}))
    with pytest.raises(ValueError, match="episodes must be int, got True"):
        load_config("train", str(path))


# ---------------------------------------------------------------- train
def test_train_smoke_writes_metrics_and_manifest(tmp_path):
    cfg = make_config("train", tmp_path / "run")
    assert run_train(cfg) == 0
    out = tmp_path / "run"
    with open(out / "metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "episode"
    assert len(rows) == 3  # header + 2 episodes
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "success"
    assert manifest["mode"] == "train"
    assert manifest["config"]["env"]["episode_length"] == 40
    assert manifest["final_summary"]["episodes"] == 2
    assert (out / "checkpoint_final.ckpt").exists()


def test_train_same_seed_byte_identical(tmp_path):
    cfg1 = make_config("train", tmp_path / "a", seed=3)
    cfg2 = make_config("train", tmp_path / "b", seed=3)
    assert run_train(cfg1) == 0
    assert run_train(cfg2) == 0
    m1 = (tmp_path / "a" / "metrics.csv").read_bytes()
    m2 = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert m1 == m2
    c1 = (tmp_path / "a" / "checkpoint_final.ckpt").read_bytes()
    c2 = (tmp_path / "b" / "checkpoint_final.ckpt").read_bytes()
    assert c1 == c2


@pytest.mark.parametrize("every, names", [
    (3, ["checkpoint_ep000003.ckpt", "checkpoint_final.ckpt", "policy_ep000003.ckpt"]),
    (1, ["checkpoint_ep000004.ckpt", "checkpoint_ep000005.ckpt", "checkpoint_final.ckpt",
         *(f"policy_ep00000{n}.ckpt" for n in range(1, 6))]),
])
def test_train_resume_matches_uninterrupted(tmp_path, every, names):
    # The first part ends on a checkpoint_every multiple, so its last state
    # is in checkpoint_final.ckpt alone; resuming from it in place extends
    # the run, keeps that state under its periodic name, writes its policy
    # snapshot and keeps the two newest full states, as the straight run.
    straight = make_config("train", tmp_path / "straight", episodes=6, seed=7, checkpoint_every=every)
    assert run_train(straight) == 0

    part = make_config("train", tmp_path / "resumed", episodes=3, seed=7, checkpoint_every=every)
    assert run_train(part) == 0
    assert not (tmp_path / "resumed" / "checkpoint_ep000003.ckpt").exists()
    assert not (tmp_path / "resumed" / "policy_ep000003.ckpt").exists()
    resumed = make_config(
        "train", tmp_path / "resumed", episodes=6, seed=7, checkpoint_every=every,
        checkpoint=str(tmp_path / "resumed" / "checkpoint_final.ckpt"),
    )
    assert run_train(resumed) == 0
    assert sorted(p.name for p in (tmp_path / "straight").glob("*.ckpt")) == names
    assert sorted(p.name for p in (tmp_path / "resumed").glob("*.ckpt")) == names
    for name in ["metrics.csv", *names]:
        assert (tmp_path / "straight" / name).read_bytes() == (tmp_path / "resumed" / name).read_bytes(), name


def test_train_saves_the_last_episode_only_as_the_final_checkpoint(tmp_path):
    out = tmp_path / "run"
    assert run_train(make_config("train", out, episodes=4, checkpoint_every=2)) == 0
    assert sorted(p.name for p in out.glob("*.ckpt")) == [
        "checkpoint_ep000002.ckpt", "checkpoint_final.ckpt", "policy_ep000002.ckpt"]


def test_train_keeps_the_two_newest_full_states_and_every_snapshot(tmp_path):
    # The flow of the checkpoint-resume benchmark: a 4-episode run saving
    # every episode, then a resume from its middle state elsewhere.
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_train(make_config("train", first, episodes=4, seed=2, checkpoint_every=1)) == 0
    assert sorted(p.name for p in first.glob("*.ckpt")) == [
        "checkpoint_ep000002.ckpt", "checkpoint_ep000003.ckpt", "checkpoint_final.ckpt",
        "policy_ep000001.ckpt", "policy_ep000002.ckpt", "policy_ep000003.ckpt"]
    resumed = make_config("train", second, episodes=4, seed=2, checkpoint_every=1,
                          checkpoint=str(first / "checkpoint_ep000002.ckpt"))
    assert run_train(resumed) == 0
    rows = (first / "metrics.csv").read_bytes().splitlines()
    assert (second / "metrics.csv").read_bytes().splitlines()[1:] == rows[3:]
    assert sorted(p.name for p in second.glob("*.ckpt")) == [
        "checkpoint_ep000003.ckpt", "checkpoint_final.ckpt", "policy_ep000003.ckpt"]
    for name in ("checkpoint_ep000003.ckpt", "checkpoint_final.ckpt", "policy_ep000003.ckpt"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_policy_snapshot_evaluates_as_its_full_state(tmp_path, capsys):
    train_out = tmp_path / "train"
    assert run_train(make_config("train", train_out, episodes=3, seed=4, checkpoint_every=2)) == 0
    full, snapshot = train_out / "checkpoint_ep000002.ckpt", train_out / "policy_ep000002.ckpt"
    for ckpt in (full, snapshot):
        assert run_eval(make_config("eval", tmp_path / ckpt.stem, checkpoint=str(ckpt))) == 0
    assert (tmp_path / full.stem / "eval_metrics.csv").read_bytes() == (
        tmp_path / snapshot.stem / "eval_metrics.csv").read_bytes()
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(small_run_dict(tmp_path / "bad", episodes=3, seed=4)))
    capsys.readouterr()
    assert cli.main(["eval", "--config", str(cfg_path), "--checkpoint", str(snapshot), "--tactile", "on"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {snapshot}: checkpoint has obs/action widths (39, 6)")
    assert "(40, 6) with tactile=True" in err
    assert cli.main(["train", "--config", str(cfg_path), "--checkpoint", str(snapshot)]) == 1
    assert capsys.readouterr().err == (f"error: {snapshot}: a policy snapshot holds no state to resume from; "
                                       f"resume from a checkpoint_*.ckpt\n")


def test_resume_refuses_checkpoint_past_the_runs_episodes(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_train(make_config("train", out, episodes=3, seed=5)) == 0
    final = out / "checkpoint_final.ckpt"
    before = {name: (out / name).read_bytes() for name in ("metrics.csv", "checkpoint_final.ckpt")}
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(small_run_dict(out, episodes=2, seed=5)))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path), "--checkpoint", str(final)]) == 1
    assert f"error: {final}: checkpoint has run 3 episodes, the run asks for 2" in capsys.readouterr().err
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name
    # A resume that asks for the episodes already run changes nothing, and
    # does not rewrite the final checkpoint: a rewrite gets a new inode.
    inode = final.stat().st_ino
    assert cli.main(["train", "--config", str(cfg_path), "--checkpoint", str(final), "--episodes", "3"]) == 0
    for name, data in before.items():
        assert (out / name).read_bytes() == data, name
    assert final.stat().st_ino == inode


def test_failed_writes_keep_previous_files(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run_train(make_config("train", out, episodes=3, seed=5, checkpoint_every=2)) == 0
    metrics = (out / "metrics.csv").read_bytes()

    # A resume whose rewrite of the kept rows fails after the first row.
    real_writer = csv.writer

    def failing_writer(fh, *args, **kwargs):
        writer = real_writer(fh, *args, **kwargs)

        class Failing:
            writerow = writer.writerow

            def writerows(self, rows):
                writer.writerow(next(iter(rows)))
                fh.flush()
                raise OSError("disk full")
        return Failing()

    with monkeypatch.context() as m:
        m.setattr(csv, "writer", failing_writer)
        resumed = make_config("train", out, episodes=3, seed=5, checkpoint=str(out / "checkpoint_ep000002.ckpt"))
        assert run_train(resumed) == 1
    assert (out / "metrics.csv").read_bytes() == metrics

    manifest = (out / "run_manifest.json").read_bytes()
    assert json.loads(manifest)["error"] == "OSError: disk full"
    with pytest.raises(TypeError):
        harness._write_json(out / "run_manifest.json", {"a": 1.0, "b": object()})
    assert (out / "run_manifest.json").read_bytes() == manifest
    assert not list(out.glob("*.tmp"))


@pytest.mark.parametrize("damage", ["column-dropped-and-renamed", "empty", "short-row", "not-a-number"])
def test_resume_refuses_metrics_it_cannot_keep(tmp_path, capsys, damage):
    out = tmp_path / "run"
    assert run_train(make_config("train", out, episodes=3, seed=5, checkpoint_every=2)) == 0
    metrics = out / "metrics.csv"
    columns = [f.name for f in fields(sac.EpisodeMetrics)]
    if damage == "empty":
        metrics.write_bytes(b"")
    else:
        with open(metrics, newline="") as fh:
            rows = list(csv.reader(fh))
        if damage == "column-dropped-and-renamed":
            rows = [row[:-2] + row[-1:] for row in rows]
            rows[0][rows[0].index("alpha_loss")] = "temperature_loss"
        elif damage == "short-row":
            rows[1] = rows[1][:-1]
        else:
            rows[1][columns.index("episode_return")] = "oops"
        with open(metrics, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    before = metrics.read_bytes()
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(small_run_dict(out, episodes=3, seed=5)))
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg_path), "--checkpoint",
                     str(out / "checkpoint_ep000002.ckpt")]) == 1
    err = capsys.readouterr().err
    if damage in ("short-row", "not-a-number"):
        # The first kept row is line 2 of the file.
        assert err.startswith(f"error: {metrics}:2: ")
        assert ("expected 15 fields, got 14" if damage == "short-row"
                else "episode_return: 'oops' is not a number") in err
    else:
        assert err.startswith(f"error: {metrics}: ") and str(columns) in err
        assert ("[]" if damage == "empty" else "'temperature_loss'") in err
    assert metrics.read_bytes() == before


# The child of the kill drill: ``softcap train`` whose checkpoint writer
# pauses, to be killed there, during or right after the save of one file.
KILL_DRILL_CHILD = """
import contextlib, pathlib, sys, time
from softcap import cli, neural

marker, when, name = pathlib.Path(sys.argv[1]), sys.argv[2], sys.argv[3]
real_replacing = neural.replacing


def pause():
    marker.touch()
    time.sleep(600)


class PausingFile:
    # Writes through, and pauses after its third write (the prefix, the
    # header and the first entry).
    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, data):
        n = self.fh.write(data)
        self.writes += 1
        if self.writes == 3:
            self.fh.flush()
            pause()
        return n


@contextlib.contextmanager
def replacing(path, mode="w", **kwargs):
    target = pathlib.Path(path).name == name
    with real_replacing(path, mode, **kwargs) as fh:
        yield PausingFile(fh) if target and when == "during" else fh
    if target and when == "after":
        pause()


neural.replacing = replacing
sys.exit(cli.main(sys.argv[4:]))
"""


def kill_when_paused(tmp_path, cfg_path, when, name) -> None:
    """Run the kill drill's child until it pauses, then SIGKILL it."""
    script, marker = tmp_path / "child.py", tmp_path / f"paused_{when}"
    script.write_text(KILL_DRILL_CHILD)
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, str(script), str(marker), when, name,
                             "train", "--config", str(cfg_path)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert proc.poll() is None, f"the child exited with {proc.returncode} before it paused"
            assert time.monotonic() < deadline, "the child did not pause within 60 s"
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=10) == -signal.SIGKILL
    finally:
        proc.kill()
        proc.communicate(timeout=10)


def test_kill_drill_resumes_byte_identical(tmp_path):
    # SIGKILL a training run once right after a checkpoint is saved and once
    # in the middle of a checkpoint save, then resume each from its newest
    # checkpoint that loads.
    def config(out):
        cfg_path = tmp_path / f"{out.name}.yaml"
        cfg_path.write_text(yaml.safe_dump(small_run_dict(out, episodes=5, seed=3, checkpoint_every=1)))
        return cfg_path

    straight = tmp_path / "straight"
    assert cli.main(["train", "--config", str(config(straight))]) == 0
    for when, name in (("after", "checkpoint_ep000002.ckpt"), ("during", "checkpoint_ep000003.ckpt")):
        out = tmp_path / when
        cfg_path = config(out)
        kill_when_paused(tmp_path, cfg_path, when, name)
        assert not (out / "checkpoint_final.ckpt").exists()
        assert json.loads((out / "run_manifest.json").read_text())["status"] == "running", when
        # A full state is deleted only once a newer one is complete, so the
        # kill during the save of episode 3 leaves episode 1's.
        assert (out / "checkpoint_ep000001.ckpt").exists(), when
        cfg = load_config("train", str(cfg_path))
        partial = out / f"{name}.tmp"
        if when == "during":
            # The header fixes the file's length, so the cut-short save fails loudly.
            with pytest.raises(ValueError, match=f"^{re.escape(str(partial))}: .*truncated"):
                sac.Trainer.load(partial, SoftCaptureEnv(cfg.env), cfg.train)
        newest = None
        for path in sorted(out.glob("checkpoint_ep*.ckpt"), reverse=True):
            try:
                sac.Trainer.load(path, SoftCaptureEnv(cfg.env), cfg.train)
            except ValueError:
                continue
            newest = path
            break
        assert newest == out / "checkpoint_ep000002.ckpt", when
        assert cli.main(["train", "--config", str(cfg_path), "--checkpoint", str(newest)]) == 0
        assert (out / "metrics.csv").read_bytes() == (straight / "metrics.csv").read_bytes(), when
        names = sorted(p.name for p in straight.glob("*.ckpt"))
        assert sorted(p.name for p in out.glob("*.ckpt")) == names, when
        for ckpt in names:
            assert (out / ckpt).read_bytes() == (straight / ckpt).read_bytes(), (when, ckpt)
        assert not list(out.glob("*.tmp")), when


def test_unwritable_output_dir_fails_cleanly(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file where a directory must go")
    cfg = make_config("train", blocker / "run")
    assert run_train(cfg) == 1
    assert "output directory" in capsys.readouterr().err


def test_train_failure_still_writes_manifest(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"garbage")
    cfg = make_config("train", tmp_path / "run", checkpoint=str(bad))
    assert run_train(cfg) == 1
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "bad.ckpt" in manifest["error"]


# ---------------------------------------------------------------- eval
def trained_checkpoint(tmp_path, tactile=False, episodes=1, seed=0) -> str:
    out = tmp_path / f"trainer_{int(tactile)}"
    data = small_run_dict(out, episodes=episodes, seed=seed)
    data["env"]["tactile_enabled"] = tactile
    data["mode"] = "train"
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_train(cfg) == 0
    return str(out / "checkpoint_final.ckpt")


def test_eval_untrained_policy_never_succeeds(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    cfg = make_config("eval", tmp_path / "eval", checkpoint=ckpt)
    assert run_eval(cfg) == 0
    manifest = json.loads((tmp_path / "eval" / "run_manifest.json").read_text())
    summary = manifest["final_summary"]
    assert summary["episodes"] == 2
    assert summary["success_rate"] == 0.0
    assert (tmp_path / "eval" / "episode_0000_trace.csv").exists()
    with open(tmp_path / "eval" / "eval_metrics.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3


def test_eval_zero_episodes_is_empty_success(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    cfg = make_config("eval", tmp_path / "eval0", checkpoint=ckpt, eval_episodes=0)
    assert run_eval(cfg) == 0
    manifest = json.loads((tmp_path / "eval0" / "run_manifest.json").read_text())
    assert manifest["final_summary"] == {"episodes": 0}


def test_eval_refuses_width_mismatch(tmp_path):
    ckpt = trained_checkpoint(tmp_path, tactile=True)  # 40-wide policy
    data = small_run_dict(tmp_path / "eval_bad")
    data["env"]["tactile_enabled"] = False  # 39-wide env
    data["mode"] = "eval"
    data["checkpoint"] = ckpt
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_eval(cfg) == 1
    manifest = json.loads((tmp_path / "eval_bad" / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "40" in manifest["error"] and "39" in manifest["error"]


def test_eval_success_rate_is_exact_count(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    cfg = make_config("eval", tmp_path / "evalc", checkpoint=ckpt)
    run_eval(cfg)
    with open(tmp_path / "evalc" / "eval_metrics.csv") as fh:
        reader = csv.DictReader(fh)
        successes = [int(r["success"]) for r in reader]
    manifest = json.loads((tmp_path / "evalc" / "run_manifest.json").read_text())
    assert manifest["final_summary"]["success_rate"] == sum(successes) / len(successes)


# ---------------------------------------------------------------- compare
def test_compare_control_case_identical_rows(tmp_path):
    ckpt = trained_checkpoint(tmp_path, tactile=False)
    data = small_run_dict(tmp_path / "cmp")
    data["mode"] = "compare"
    data["compare"] = {
        "checkpoint_a": ckpt,
        "checkpoint_b": ckpt,
        "tactile_a": False,
        "tactile_b": False,
    }
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_compare(cfg) == 0
    with open(tmp_path / "cmp" / "comparison.csv") as fh:
        rows = list(csv.reader(fh))
    header, a, b = rows
    # Identical checkpoints and flags: every measured column matches.
    assert a[1:] == b[1:]
    assert a[header.index("arm")] == "a" and b[header.index("arm")] == "b"


def test_compare_trains_both_arms_when_no_checkpoints(tmp_path):
    data = small_run_dict(tmp_path / "cmp2", episodes=1)
    data["mode"] = "compare"
    data["compare"] = {"train_episodes": 1}
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_compare(cfg) == 0
    comparison = (tmp_path / "cmp2" / "comparison.csv").read_text()
    assert (tmp_path / "cmp2" / "arm_a" / "checkpoint_final.ckpt").exists()
    assert (tmp_path / "cmp2" / "arm_b" / "checkpoint_final.ckpt").exists()
    lines = comparison.strip().splitlines()
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "cmp2" / "run_manifest.json").read_text())
    arms = manifest["final_summary"]["arms"]
    assert {arm["arm"] for arm in arms} == {"a", "b"}
    assert arms[0]["tactile"] == 1 and arms[1]["tactile"] == 0
    for arm in arms:  # both success rates reported, no ordering asserted
        assert 0.0 <= arm["success_rate"] <= 1.0


def test_compare_zero_train_episodes_is_honoured(tmp_path):
    data = small_run_dict(tmp_path / "cmp0", episodes=3)
    data["mode"] = "compare"
    data["compare"] = {"train_episodes": 0}
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_compare(cfg) == 0
    for arm in ("arm_a", "arm_b"):
        rows = (tmp_path / "cmp0" / arm / "metrics.csv").read_text().splitlines()
        assert rows == [",".join(f.name for f in fields(sac.EpisodeMetrics))]


def test_metrics_csv_rows_are_the_trainer_metrics(tmp_path):
    cfg = make_config("train", tmp_path / "run", episodes=2)
    assert run_train(cfg) == 0
    with open(tmp_path / "run" / "metrics.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == [f.name for f in fields(sac.EpisodeMetrics)]
    metrics = sac.Trainer(SoftCaptureEnv(cfg.env), cfg.train).run()
    assert rows == [table_row(astuple(m)) for m in metrics]


def test_compare_rejects_negative_train_episodes(tmp_path, capsys):
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump({"compare": {"train_episodes": -1}}))
    with pytest.raises(ValueError, match="compare.train_episodes must be >= 0, got -1"):
        load_config("compare", str(path))
    out = tmp_path / "cmp"
    assert cli.main(["compare", "--config", str(path), "--out", str(out)]) == 2
    assert "compare.train_episodes must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_top_level_checkpoint(tmp_path):
    # Arms take their checkpoints from the compare section only.
    with pytest.raises(ValueError, match="compare.checkpoint_a"):
        load_config("compare", None, {"checkpoint": str(tmp_path / "x.ckpt"),
                                      "out_dir": str(tmp_path / "cmp")})


# ---------------------------------------------------------------- replay export
def make_trace(tmp_path) -> Path:
    from softcap.env import SoftCaptureEnv, write_trace_csv
    from conftest import small_env_config

    env = SoftCaptureEnv(small_env_config(episode_length=30, success_streak_length=10))
    env.reset(seed=0)
    rng = np.random.default_rng(0)
    for _ in range(30):
        env.step(rng.uniform(-1, 1, 6))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, env.trace)
    return path


def test_replay_export_outputs_and_streak(tmp_path):
    trace = make_trace(tmp_path)
    data = small_run_dict(tmp_path / "exp")
    data["mode"] = "replay-export"
    data["trace"] = str(trace)
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_replay_export(cfg) == 0
    out = tmp_path / "exp"
    rewards = (out / "trace_rewards.csv").read_text()
    assert rewards.splitlines()[0] == "step,r_dist,r_align,r_surr,r_contact,reward,contact_force"
    assert len(rewards.strip().splitlines()) == 31
    poses = (out / "trace_poses.csv").read_text()
    assert len(poses.strip().splitlines()) == 31
    summary = json.loads((out / "trace_summary.json").read_text())
    assert summary["rows"] == 30
    assert 0 <= summary["longest_success_streak"] <= 30


def test_replay_export_flags_long_streak(tmp_path):
    # Synthesize a trace holding reward above threshold for the whole run.
    path = tmp_path / "good.csv"
    cols = "step,r_dist,r_align,r_surr,r_contact,reward,contact_force"
    lines = [cols] + [f"{i+1},0.9,0.9,1.0,0.0,2.8,0.0" for i in range(25)]
    path.write_text("\n".join(lines) + "\n")
    data = small_run_dict(tmp_path / "expg")
    data["mode"] = "replay-export"
    data["trace"] = str(path)
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_replay_export(cfg) == 0
    summary = json.loads((tmp_path / "expg" / "good_summary.json").read_text())
    assert summary["longest_success_streak"] == 25
    assert summary["streak_reached"] is True  # streak length 20 in this config


def test_replay_export_is_idempotent_on_reward_series(tmp_path):
    trace = make_trace(tmp_path)
    data = small_run_dict(tmp_path / "exp1")
    data["mode"] = "replay-export"
    data["trace"] = str(trace)
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_replay_export(cfg) == 0
    first = tmp_path / "exp1" / "trace_rewards.csv"

    data2 = small_run_dict(tmp_path / "exp2")
    data2["mode"] = "replay-export"
    data2["trace"] = str(first)
    cfg2 = harness._build_dataclass(RunConfig, data2)
    assert run_replay_export(cfg2) == 0
    second = tmp_path / "exp2" / "trace_rewards_rewards.csv"
    assert first.read_bytes() == second.read_bytes()


def test_replay_export_empty_trace_warns(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("step,r_dist,r_align,r_surr,r_contact,reward,contact_force\n")
    data = small_run_dict(tmp_path / "expe")
    data["mode"] = "replay-export"
    data["trace"] = str(path)
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_replay_export(cfg) == 0
    assert "warning" in capsys.readouterr().err
    rewards = (tmp_path / "expe" / "empty_rewards.csv").read_text()
    assert len(rewards.strip().splitlines()) == 1


def test_replay_export_malformed_trace_fails_with_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,r_dist,r_align,r_surr,r_contact,reward,contact_force\n1,a,b,c,d,e,f\n")
    data = small_run_dict(tmp_path / "expb")
    data["mode"] = "replay-export"
    data["trace"] = str(path)
    cfg = harness._build_dataclass(RunConfig, data)
    assert run_replay_export(cfg) == 1
    manifest = json.loads((tmp_path / "expb" / "run_manifest.json").read_text())
    assert ":2" in manifest["error"]


# ---------------------------------------------------------------- cli
def test_cli_train_smoke(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(small_run_dict(tmp_path / "cli_out")))
    code = cli.main(["train", "--config", str(cfg_path), "--seed", "1"])
    assert code == 0
    assert (tmp_path / "cli_out" / "metrics.csv").exists()


def test_cli_eval_episode_override(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(small_run_dict(tmp_path / "cli_eval")))
    code = cli.main([
        "eval", "--config", str(cfg_path), "--checkpoint", ckpt, "--episodes", "1",
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "cli_eval" / "run_manifest.json").read_text())
    assert manifest["final_summary"]["episodes"] == 1


def test_cli_smoke_config_trains_and_compares(tmp_path):
    smoke = str(Path(__file__).resolve().parents[1] / "configs" / "smoke.yaml")
    assert cli.main(["train", "--config", smoke, "--out", str(tmp_path / "train")]) == 0
    assert cli.main(["compare", "--config", smoke, "--out", str(tmp_path / "cmp")]) == 0
    with open(tmp_path / "train" / "metrics.csv") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3  # smoke.yaml: episodes 3
    with open(tmp_path / "cmp" / "comparison.csv") as fh:
        assert [r["arm"] for r in csv.DictReader(fh)] == ["a", "b"]
    # Arm a is the tactile arm, trained through the train body with the
    # same seed for 2 episodes, so its final checkpoint matches the train
    # run's episode-2 checkpoint.
    assert (tmp_path / "cmp" / "arm_a" / "checkpoint_final.ckpt").read_bytes() == (
        tmp_path / "train" / "checkpoint_ep000002.ckpt"
    ).read_bytes()


def test_cli_bad_config_fails_loudly(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump({"bogus": 1}))
    code = cli.main(["train", "--config", str(cfg_path)])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_cli_refuses_a_removed_env_key(tmp_path, capsys):
    data = small_run_dict(tmp_path / "out")
    data["env"]["success_reward_threshold"] = 2.0
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(data))
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown env keys: ['success_reward_threshold']")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, key, value, named", [
    (None, "episodes", "ten", "episodes must be int"),
    ("env", "episode_length", "500", "env.episode_length must be int"),
    ("env", "target_half_extents", [0.05, 0.05], "env.target_half_extents must be 3 numbers"),
    ("env", "target_half_extents", ["a", "b", "c"],
     "env.target_half_extents must be 3 numbers, got ['a', 'b', 'c']"),
    ("env", "randomization", {"target_mass_range": [1.0]},
     "env.randomization.target_mass_range must be 2 numbers, got [1.0]"),
    ("env", "randomization", {"target_position_low": [0.4, "a", 0.0]},
     "env.randomization.target_position_low must be 3 numbers, got [0.4, 'a', 0.0]"),
    ("env", "containment_margin", float("nan"), "env.containment_margin must be finite float, got nan"),
    ("train", "learning_rate", 0, "learning_rate must be > 0, got 0"),
    ("train", "learning_rate", -0.001, "learning_rate must be > 0, got -0.001"),
])
def test_cli_rejects_config_values_of_the_wrong_type(tmp_path, capsys, section, key, value, named):
    data = small_run_dict(tmp_path / "out")
    (data[section] if section else data)[key] = value
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(data))
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, named", [
    (b"seed: [1, 2\n", "expected ',' or ']'"),
    (b"seed: 1\n# \xff\xfe\n", "can't decode byte 0xff"),
    (b"env:\n  tactile_enabled: true\n  tactile_enabled: false\n", "duplicate key 'tactile_enabled'"),
], ids=["malformed", "not-utf8", "duplicate-key"])
def test_cli_refuses_unreadable_config_file(tmp_path, capsys, text, named):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_bytes(text)
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg_path), "--episodes", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: ") and named in err
    if "duplicate" in named:
        assert "line 3" in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["train", "eval"])
def test_cli_refuses_negative_seed(tmp_path, capsys, mode):
    out = tmp_path / "out"
    assert cli.main([mode, "--seed", "-1", "--episodes", "0", "--checkpoint", str(tmp_path / "x.ckpt"),
                     "--out", str(out)]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_resume_into_fresh_directory_summarizes_its_own_rows(tmp_path, capsys):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(small_run_dict(tmp_path / "a", episodes=5, checkpoint_every=2)))
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    ckpt = tmp_path / "a" / "checkpoint_ep000002.ckpt"
    assert cli.main(["train", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / "fresh")]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning: ")]
    assert len(warnings) == 1 and "holds 0 of the 2 episodes" in warnings[0]
    with open(tmp_path / "fresh" / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["episode"]) for r in rows] == [2, 3, 4]
    summary = json.loads((tmp_path / "fresh" / "run_manifest.json").read_text())["final_summary"]
    assert summary["episodes"] == 5
    assert summary["summarized_episodes"] == 3
    assert summary["mean_return"] == np.mean([float(r["episode_return"]) for r in rows])
    assert summary["success_rate"] == np.mean([int(r["success"]) for r in rows])


def test_cli_resume_refuses_checkpoint_of_other_tactile_flag(tmp_path):
    ckpt = trained_checkpoint(tmp_path, tactile=True)  # 40-wide policy
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(yaml.safe_dump(small_run_dict(tmp_path / "resume", episodes=3)))
    code = cli.main(["train", "--config", str(cfg_path), "--checkpoint", ckpt, "--tactile", "off"])
    assert code == 1
    error = json.loads((tmp_path / "resume" / "run_manifest.json").read_text())["error"]
    for part in (ckpt, "(40, 6) in buffer.obs/buffer.action", "(39, 6)", "tactile=False"):
        assert part in error


def test_cli_mode_requirements_fail_loudly(capsys):
    assert cli.main(["eval"]) == 2
    assert "checkpoint" in capsys.readouterr().err
    assert cli.main(["replay-export"]) == 2
    assert "trace" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["replay-export", "--trace", "t.csv", "--episodes", "5"],
    ["replay-export", "--trace", "t.csv", "--seed", "1"],
    ["replay-export", "--trace", "t.csv", "--tactile", "on"],
    ["replay-export", "--trace", "t.csv", "--checkpoint", "x.ckpt"],
    ["compare", "--checkpoint", "x.ckpt"],
    ["compare", "--tactile", "off"],
])
def test_cli_rejects_flags_the_mode_ignores(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
