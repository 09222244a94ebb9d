"""The three workloads: their inputs, one measured round of each, and the
checks on each round's outputs.

A round is the same fixed set of jobs every time, so every round of a run
attempts the same operations.  Each job is timed from its start to its
first ``env.reset`` (set-up) and from there to its end (run time).

``prepare`` and ``check_after`` run in the parent process, before and after
the job process; checks that load a second copy of the program's state run
there, so that they add nothing to the job's peak memory.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gc
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from softcap import env as env_mod
from softcap import harness, sac

from reference import HostSpeed
from tracing import Tracer

ROOT_SPAN = "driver.job"


class Checks:
    """Records which checks ran and which failed."""

    def __init__(self):
        self.ran = set()
        self.failures: List[str] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.ran.add(name)
        if not ok and len(self.failures) < 20:
            self.failures.append(f"{name}: {detail}")


class SetupReached(BaseException):
    """Unwinds a set-up probe at its first ``env.reset``.  It derives from
    BaseException so that the job's own ``except Exception`` handling,
    which reports failures, lets it through."""


class SetupClock:
    """Wraps ``SoftCaptureEnv.reset`` to mark when a job's first episode starts."""

    def __init__(self):
        self._first: Optional[float] = None
        self._probing = False
        self._untimed = 0.0
        original = env_mod.SoftCaptureEnv.reset
        clock = self

        @functools.wraps(original)
        def reset(env, *args, **kwargs):
            if clock._first is None:
                clock._first = time.perf_counter()
                if clock._probing:
                    raise SetupReached()
            return original(env, *args, **kwargs)

        env_mod.SoftCaptureEnv.reset = reset

    def time(self, job, tracer: Optional[Tracer]):
        """Run ``job()``; return (its result, set-up seconds, run seconds)."""
        gc.collect()  # no garbage of an earlier job adds to this one's memory
        self._first = None
        self._untimed = 0.0
        start = time.perf_counter()
        result = tracer.call(ROOT_SPAN, job) if tracer else job()
        end = time.perf_counter()
        if self._first is None:
            raise RuntimeError("the job never reset an environment")
        return result, self._first - start, end - self._first - self._untimed

    def untimed(self, fn) -> None:
        """Run ``fn()`` inside a job, after its set-up, and leave its time
        out of the job's run time."""
        t0 = time.perf_counter()
        fn()
        self._untimed += time.perf_counter() - t0

    def probe(self, job) -> float:
        """Run ``job()`` only up to its first reset; return the set-up seconds."""
        gc.collect()
        self._first = None
        self._probing = True
        start = time.perf_counter()
        try:
            job()
        except SetupReached:
            return self._first - start
        finally:
            self._probing = False
        raise RuntimeError("the set-up probe never reset an environment")


@dataclass
class Round:
    setup_s: List[float]
    run_s: float
    env_steps: int
    updates: int
    ops: Dict[str, int]
    failed: int
    bytes_written: int

    @property
    def attempted(self) -> int:
        return sum(self.ops.values())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _train_config(out: Path, seed: int, episodes: int, env: dict, train: dict,
                  checkpoint_every: int, checkpoint: Optional[Path] = None):
    overrides = {"seed": seed, "out_dir": str(out), "episodes": episodes,
                 "checkpoint_every": checkpoint_every, "env": dict(env), "train": dict(train)}
    if checkpoint is not None:
        overrides["checkpoint"] = str(checkpoint)
    return harness.load_config("train", None, overrides)


def _update_schedule(start_steps: int, steps: int, warmup: int, freq: int, batch: int,
                     buffer_start: int, capacity: int) -> int:
    """Updates ``Trainer`` makes over ``steps`` env steps, per its documented
    rule: at or past warmup, every ``freq`` steps, once the buffer holds a batch."""
    n = 0
    for i in range(1, steps + 1):
        s = start_steps + i
        if s >= warmup and s % freq == 0 and min(buffer_start + i, capacity) >= batch:
            n += 1
    return n


@contextlib.contextmanager
def _sample_after_calls(owner, attr: str, every: int, sample):
    """Call ``sample()`` after every ``every``-th call of ``owner.attr``."""
    original = getattr(owner, attr)
    calls = 0

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        nonlocal calls
        result = original(*args, **kwargs)
        calls += 1
        if calls % every == 0:
            sample()
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _read_metrics(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def generated_buffer(seed: int, n: int, obs_dim: int, action_dim: int, capacity: int):
    """A replay buffer of ``n`` synthetic transitions drawn from ``seed``,
    filled through ``ReplayBuffer.add``; episodes are 500 steps long."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    obs = rng.normal(0.0, 0.3, (n + 1, obs_dim))
    obs[:, -1] = np.abs(obs[:, -1])
    actions = rng.uniform(-1.0, 1.0, (n, action_dim))
    rewards = rng.uniform(-1.0, 3.0, n)
    buffer = sac.ReplayBuffer(capacity, obs_dim, action_dim)
    for i in range(n):
        done = float((i + 1) % 500 == 0)
        buffer.add(sac.Transition(obs[i], actions[i], float(rewards[i]), obs[i + 1], done))
    return buffer


# ----------------------------------------------------------------------
class LearnerPaper:
    """``softcap train --checkpoint`` at the paper's learner settings, resumed
    from a checkpoint whose buffer already holds the warmup transitions, so
    every measured step runs under the update schedule."""

    name = "learner-paper"
    checks_untraced = ("job_status", "metrics_rows", "schedule_counts", "losses_finite",
                       "alpha_positive")
    checks_traced = ("soft_update",)
    checks_after = ("critic_finite_difference",)
    setup_probes = 20
    # Untraced rounds time the reference loops after every SAMPLE_EVERY
    # updates, outside the run time.
    SAMPLE_EVERY = 5
    EPISODES = 1
    LENGTH = 500
    BATCH = 1024
    # Warmup just past one batch; the generated checkpoint holds it.
    WARMUP = BATCH + BATCH // 16

    def __init__(self, seed: int, base: Path):
        self.seed = seed
        self.base = base
        self.env = {"tactile_enabled": True, "episode_length": self.LENGTH,
                    "success_streak_length": 200}
        self.train = {"batch_size": self.BATCH, "warmup_steps": self.WARMUP}
        self.checkpoint = base / "warmup.ckpt"
        self.final = base / "round000_final.ckpt"
        # The SAC update (neural and sac layers) takes about 80% of the job.
        self.speed = HostSpeed(python_weight=0.2)

    def _config(self, out: Path):
        return _train_config(out, self.seed, self.EPISODES, self.env, self.train,
                             checkpoint_every=100, checkpoint=self.checkpoint)

    def prepare(self) -> None:
        """Write a checkpoint of fresh networks and ``WARMUP`` generated transitions."""
        cfg = self._config(self.base)
        env = env_mod.SoftCaptureEnv(cfg.env)
        trainer = sac.Trainer(env, cfg.train)
        trainer.buffer = generated_buffer(self.seed, self.WARMUP, env.observation_dim,
                                          env.action_dim, cfg.train.buffer_capacity)
        trainer.env_steps = self.WARMUP
        trainer.save(self.checkpoint)

    def _updates(self, steps: int, cfg) -> int:
        return _update_schedule(self.WARMUP, steps, self.WARMUP, cfg.train.train_freq, self.BATCH,
                                self.WARMUP, cfg.train.buffer_capacity)

    def round(self, k: int, clock: SetupClock, checks: Checks, tracer: Optional[Tracer]) -> Round:
        out = self.base / f"round{k:03d}"
        cfg = self._config(out)
        if tracer is None:
            with _sample_after_calls(sac.SacAgent, "update", self.SAMPLE_EVERY,
                                     lambda: clock.untimed(self.speed.sample)):
                status, setup_s, run_s = clock.time(lambda: harness.run_train(cfg), None)
        else:
            status, setup_s, run_s = clock.time(lambda: harness.run_train(cfg), tracer)
        steps = self.EPISODES * self.LENGTH
        updates = self._updates(steps, cfg)
        ops = {"env_steps": steps, "updates": updates, "episodes": self.EPISODES,
               "checkpoint_loads": 1, "checkpoint_saves": 1}
        checks("job_status", status == 0, f"run_train returned {status}")
        if status == 0:
            self._check_metrics(out / "metrics.csv", cfg, checks)
        written = _dir_bytes(out)
        if k == 0 and status == 0:
            (out / "checkpoint_final.ckpt").rename(self.final)
        shutil.rmtree(out)
        return Round([setup_s], run_s, steps, updates, ops,
                     0 if status == 0 else sum(ops.values()), written)

    def setup_probe(self, i: int, clock: SetupClock) -> float:
        out = self.base / f"probe{i:03d}"
        seconds = clock.probe(lambda: harness.run_train(self._config(out)))
        shutil.rmtree(out)
        return seconds

    def check_after(self, checks: Checks) -> None:
        if not self.final.is_file():
            checks("critic_finite_difference", False, "round 0 left no final checkpoint")
            return
        self._check_critic_gradient(self.final, self._config(self.base), checks)

    def _check_metrics(self, path: Path, cfg, checks: Checks) -> None:
        header, rows = _read_metrics(path)
        checks("metrics_rows", len(rows) == self.EPISODES,
               f"{len(rows)} rows for {self.EPISODES} episodes")
        col = {name: i for i, name in enumerate(header)}
        for ep, row in enumerate(rows):
            steps = (ep + 1) * self.LENGTH
            want = (self.WARMUP + steps, self._updates(steps, cfg))
            got = (int(row[col["env_steps"]]), int(row[col["updates"]]))
            checks("schedule_counts", got == want,
                   f"episode {ep}: (env_steps, updates) {got} != {want}")
            if got[1] > 0:
                losses = [float(row[col[c]]) for c in
                          ("critic1_loss", "critic2_loss", "policy_loss", "alpha_loss")]
                checks("losses_finite", all(math.isfinite(v) for v in losses),
                       f"episode {ep}: losses {losses}")
            checks("alpha_positive", float(row[col["alpha"]]) > 0.0, f"episode {ep}: alpha")

    def _check_critic_gradient(self, checkpoint: Path, cfg, checks: Checks) -> None:
        """Central differences of the critic loss on a few weights of the
        last two layers, at a batch of the run's own buffer, against
        ``critic_loss_and_grads`` (criterion 06's tolerance and step)."""
        trainer = sac.Trainer.load(checkpoint, env_mod.SoftCaptureEnv(cfg.env), cfg.train)
        agent = trainer.agent
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 11)))
        batch = trainer.buffer.sample(rng, self.BATCH)
        y = sac.critic_target(batch, agent.critics, agent.policy, agent.temperature.alpha,
                              cfg.train.gamma, rng)
        params = agent.critics.q1
        _, grads = sac.critic_loss_and_grads(params, batch.obs, batch.action, y)

        # Layer inputs and hidden pre-activations, recomputed here, to keep
        # each perturbed hidden weight clear of a ReLU kink.
        inputs, pre = [np.concatenate([batch.obs, batch.action], axis=1)], []
        for w, b in zip(params.weights[:-1], params.biases[:-1]):
            pre.append(inputs[-1] @ w.T + b)
            inputs.append(np.maximum(pre[-1], 0.0))
        step, rtol, floor = 1e-5, 1e-4, 1e-8
        last = len(params.weights) - 1
        picks = [(last, 0, int(i)) for i in rng.choice(params.weights[last].shape[1], 3, replace=False)]
        rows, cols = params.weights[last - 1].shape
        for j, i in zip(rng.permutation(rows), rng.permutation(cols)):
            if np.all(np.abs(pre[last - 1][:, j]) > 4.0 * step * np.abs(inputs[last - 1][:, i])):
                picks.append((last - 1, int(j), int(i)))
            if len(picks) == 6:
                break
        for layer, j, i in picks:
            w = params.weights[layer]
            orig = w[j, i]
            w[j, i] = orig + step
            up = sac.critic_loss_and_grads(params, batch.obs, batch.action, y)[0]
            w[j, i] = orig - step
            down = sac.critic_loss_and_grads(params, batch.obs, batch.action, y)[0]
            w[j, i] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = grads.weights[layer][j, i]
            checks("critic_finite_difference",
                   abs(analytic - numeric) <= rtol * max(abs(numeric), floor) + floor,
                   f"layer {layer} weight ({j}, {i}): analytic {analytic} vs numeric {numeric}")
        checks("critic_finite_difference", len(picks) == 6, f"only {len(picks)} weights checked")


# ----------------------------------------------------------------------
def _quat_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


class SimContact:
    """Evaluation-style loop with a pursuit controller that keeps the gripper
    pressing on a target that starts within reach."""

    name = "sim-contact"
    checks_untraced = ("r_dist_recomputed", "reward_is_sum_of_terms", "reward_bounds",
                       "r_contact_matches_tactile", "free_flight_momentum",
                       "free_flight_angular_momentum", "free_flight_energy", "trace_file")
    checks_traced = ("single_contact_impulse",)
    checks_after = ()
    setup_probes = 20  # set-up is about a millisecond here
    # A round lasts many seconds, so untraced rounds also time the reference
    # loop after every SAMPLE_EVERY episodes, outside the run time.
    SAMPLE_EVERY = 4
    # Controller: follow the target's velocity and close the distance to
    # REACH at GAIN per step, which keeps the palm and fingers on the box
    # for about 40% of the control steps.
    GAIN = 0.5
    REACH = 0.10

    def __init__(self, seed: int, base: Path):
        self.seed = seed
        self.base = base
        # Contact share varies a lot from episode to episode, so a round
        # holds many short episodes to keep the mix steady across seeds.
        self.length = 30
        self.episode_seeds = [int(s) for s in
                              np.random.SeedSequence((seed, 5)).generate_state(96)]
        self.config = env_mod.EnvConfig(
            tactile_enabled=True,
            episode_length=self.length,
            success_streak_length=self.length // 2,
            randomization=env_mod.RandomizationSpec(
                target_position_low=(0.25, -0.03, -0.03),
                target_position_high=(0.35, 0.03, 0.03),
            ),
        )
        self.input_stats = {"control_steps": 0, "contact_steps": 0}
        self.speed = HostSpeed(python_weight=1.0)

    def prepare(self) -> None:
        pass

    def check_after(self, checks: Checks) -> None:
        pass

    def _action(self, env) -> np.ndarray:
        g, t = env.gripper, env.target
        d = t.pose.position - g.pose.position
        dist = max(float(np.linalg.norm(d)), 1e-9)
        move = t.lin_vel * self.config.control_dt + self.GAIN * d * (1.0 - self.REACH / dist)
        local = _quat_matrix(g.pose.orientation).T @ move
        action = np.zeros(6)
        action[:3] = np.clip(local / self.config.action_limits.max_translation_step, -1.0, 1.0)
        return action

    def _job(self, out: Path, clock: Optional[SetupClock] = None):
        out.mkdir(parents=True)
        env = env_mod.SoftCaptureEnv(self.config)
        episodes = []
        for i, seed in enumerate(self.episode_seeds):
            env.reset(seed)
            t = env.target
            states = [(t.lin_vel.copy(), t.ang_vel.copy(), t.pose.orientation.copy())]
            steps = []
            for _ in range(self.length):
                result = env.step(self._action(env))
                t = env.target
                states.append((t.lin_vel.copy(), t.ang_vel.copy(), t.pose.orientation.copy()))
                steps.append((result.reward, result.terms, float(result.obs[39])))
            trace = env.trace
            env_mod.write_trace_csv(out / f"episode_{i:04d}_trace.csv", trace)
            episodes.append((t.mass, states, steps, trace))
            if clock is not None and i % self.SAMPLE_EVERY == self.SAMPLE_EVERY - 1:
                clock.untimed(self.speed.sample)
        return episodes

    def round(self, k: int, clock: SetupClock, checks: Checks, tracer: Optional[Tracer]) -> Round:
        out = self.base / f"round{k:03d}"
        sampling = clock if tracer is None else None
        episodes, setup_s, run_s = clock.time(lambda: self._job(out, sampling), tracer)
        for i, episode in enumerate(episodes):
            self._check_episode(out / f"episode_{i:04d}_trace.csv", *episode, checks)
        n = len(self.episode_seeds)
        ops = {"env_steps": n * self.length, "episodes": n, "trace_files": n}
        written = _dir_bytes(out)
        shutil.rmtree(out)
        return Round([setup_s], run_s, n * self.length, 0, ops, 0, written)

    def setup_probe(self, i: int, clock: SetupClock) -> float:
        out = self.base / f"probe{i:03d}"
        seconds = clock.probe(lambda: self._job(out))
        shutil.rmtree(out)
        return seconds

    def _check_episode(self, path, mass, states, steps, trace, checks: Checks) -> None:
        half = np.asarray(self.config.target_half_extents, dtype=float)
        a, b, c = 2.0 * half
        inertia = mass / 12.0 * np.array([b * b + c * c, a * a + c * c, a * a + b * b])
        for rec, (reward, terms, tactile) in zip(trace, steps):
            gap = float(np.linalg.norm(rec.gripper_pose.position - rec.target_pose.position))
            checks("r_dist_recomputed", abs(terms.r_dist - (1.0 - math.tanh(gap))) <= 1e-12,
                   f"step {rec.step}: r_dist {terms.r_dist} vs {1.0 - math.tanh(gap)}")
            total = terms.r_dist + terms.r_align + terms.r_surr + terms.r_contact
            checks("reward_is_sum_of_terms", abs(reward - total) <= 1e-12,
                   f"step {rec.step}: reward {reward} vs terms {total}")
            checks("reward_bounds", -1.0 <= reward <= 3.0, f"step {rec.step}: reward {reward}")
            checks("r_contact_matches_tactile", terms.r_contact == (-1.0 if tactile > 0.0 else 0.0),
                   f"step {rec.step}: r_contact {terms.r_contact} with tactile {tactile}")

        def momentum(state):
            _, w, q = state
            return _quat_matrix(q) @ (inertia * w), 0.5 * float(w @ (inertia * w))

        self.input_stats["control_steps"] += len(steps)
        self.input_stats["contact_steps"] += sum(1 for s in steps if s[2] > 0.0)
        ref = states[0]
        for i, (_, _, tactile) in enumerate(steps, start=1):
            if tactile > 0.0:
                ref = states[i]
                continue
            (l0, e0), (l1, e1) = momentum(ref), momentum(states[i])
            checks("free_flight_momentum", np.array_equal(mass * ref[0], mass * states[i][0]),
                   f"step {i}: linear momentum changed without contact")
            checks("free_flight_angular_momentum",
                   np.linalg.norm(l1 - l0) <= 1e-4 * max(float(np.linalg.norm(l0)), 1e-12),
                   f"step {i}: world angular momentum drifted")
            checks("free_flight_energy", abs(e1 - e0) <= 1e-4 * max(abs(e0), 1e-12),
                   f"step {i}: rotational energy drifted")

        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        col = rows[0].index("reward") if rows and "reward" in rows[0] else None
        ok = (col is not None and len(rows) - 1 == len(steps)
              and [float(r[col]) for r in rows[1:]] == [s[0] for s in steps])
        checks("trace_file", ok, f"{path.name}: rows or rewards differ from the run")


# ----------------------------------------------------------------------
class CheckpointResume:
    """Resume ``softcap train`` from a checkpoint with a large generated replay
    buffer, checkpointing every episode, then resume again from a middle
    checkpoint."""

    name = "checkpoint-resume"
    checks_untraced = ("job_status", "metrics_rows", "resume_rows_identical")
    checks_traced = ()
    checks_after = ("restored_buffer_samples",)
    setup_probes = 3
    EPISODES = 4
    MIDDLE = 2

    def __init__(self, seed: int, base: Path):
        self.seed = seed
        self.base = base
        self.transitions = 50_000
        self.length = 10
        self.env = {"tactile_enabled": True, "episode_length": self.length,
                    "success_streak_length": self.length // 2}
        self.train = {"batch_size": 64, "warmup_steps": 0}
        self.checkpoint = base / "generated.ckpt"
        self.speed = HostSpeed(python_weight=1.0)

    def _config(self, out: Path, checkpoint: Path):
        return _train_config(out, self.seed, self.EPISODES, self.env, self.train,
                             checkpoint_every=1, checkpoint=checkpoint)

    def _buffer(self, cfg):
        env = env_mod.SoftCaptureEnv(cfg.env)
        return env, generated_buffer(self.seed, self.transitions, env.observation_dim,
                                     env.action_dim, cfg.train.buffer_capacity)

    def prepare(self) -> None:
        """Write the generated checkpoint; keep its buffer for ``check_after``."""
        cfg = self._config(self.base, self.checkpoint)
        env, self.generated = self._buffer(cfg)
        trainer = sac.Trainer(env, cfg.train)
        trainer.buffer = self.generated
        trainer.env_steps = self.transitions
        trainer.save(self.checkpoint)

    def round(self, k: int, clock: SetupClock, checks: Checks, tracer: Optional[Tracer]) -> Round:
        out = self.base / f"round{k:03d}"
        first, second = out / "first", out / "second"
        cfg1 = self._config(first, self.checkpoint)
        cfg2 = self._config(second, first / f"checkpoint_ep{self.MIDDLE:06d}.ckpt")
        status1, setup1, run1 = clock.time(lambda: harness.run_train(cfg1), tracer)
        status2, setup2, run2 = clock.time(lambda: harness.run_train(cfg2), tracer)

        resumed = self.EPISODES - self.MIDDLE
        steps = (self.EPISODES + resumed) * self.length
        updates = sum(_update_schedule(start * self.length + self.transitions, n * self.length, 0,
                                       cfg1.train.train_freq, cfg1.train.batch_size,
                                       self.transitions + start * self.length,
                                       cfg1.train.buffer_capacity)
                      for start, n in ((0, self.EPISODES), (self.MIDDLE, resumed)))
        ops = {"env_steps": steps, "updates": updates, "episodes": self.EPISODES + resumed,
               "checkpoint_saves": self.EPISODES + 1 + resumed + 1, "checkpoint_loads": 2}
        ok = status1 == 0 and status2 == 0
        checks("job_status", ok, f"run_train returned {status1} and {status2}")
        if ok:
            rows1 = (first / "metrics.csv").read_bytes().splitlines()
            rows2 = (second / "metrics.csv").read_bytes().splitlines()
            checks("metrics_rows", len(rows1) == 1 + self.EPISODES and len(rows2) == 1 + resumed,
                   f"{len(rows1) - 1} and {len(rows2) - 1} rows")
            checks("resume_rows_identical", rows2[1:] == rows1[1 + self.MIDDLE:],
                   "second resume's metrics rows differ from the first run's")
        written = _dir_bytes(out)
        shutil.rmtree(out)
        return Round([setup1, setup2], run1 + run2, steps, updates, ops,
                     0 if ok else sum(ops.values()), written)

    def setup_probe(self, i: int, clock: SetupClock) -> float:
        out = self.base / f"probe{i:03d}"
        cfg = self._config(out, self.checkpoint)
        seconds = clock.probe(lambda: harness.run_train(cfg))
        shutil.rmtree(out)
        return seconds

    def check_after(self, checks: Checks) -> None:
        """Batches sampled from the buffer ``Trainer.load`` restores equal those
        sampled from the generated one."""
        cfg = self._config(self.base, self.checkpoint)
        restored = sac.Trainer.load(self.checkpoint, env_mod.SoftCaptureEnv(cfg.env), cfg.train).buffer
        for draw in range(3):
            seed = np.random.SeedSequence((self.seed, 13, draw))
            a = self.generated.sample(np.random.default_rng(seed), 256)
            b = restored.sample(np.random.default_rng(seed), 256)
            same = len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
            checks("restored_buffer_samples", same, f"draw {draw}: batches differ")


WORKLOADS = {w.name: w for w in (LearnerPaper, SimContact, CheckpointResume)}
