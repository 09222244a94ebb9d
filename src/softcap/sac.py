"""Soft actor-critic learner built on the dense-network substrate.

Squashed-Gaussian policy (tanh of a reparameterized Gaussian), twin critics
with soft-updated target copies, adaptive entropy temperature, a uniform
ring replay buffer, and a deterministic training loop wired to the
environment.  One gradient update of critics, policy and temperature runs
every ``train_freq`` environment steps, followed by soft target updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from . import neural
from .checks import check_fields
from .neural import AdamState, DenseParams, Workspace

HIDDEN_SIZES = (256, 256)
LOG_STD_MIN = -20.0
LOG_STD_MAX = 2.0
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
CHECKPOINT_VERSION = 7
# The learned quantities, each stepped by its own ``neural.AdamState``
# (``SacAgent.opt_<name>``): the three networks and the log temperature.
_OPTIMIZERS = ("policy", "q1", "q2", "alpha")


@dataclass
class TrainConfig:
    episodes: int = 100
    seed: int = 0
    gamma: float = 0.99
    tau: float = 0.005
    batch_size: int = 1024
    train_freq: int = 4
    learning_rate: float = 3e-4
    buffer_capacity: int = 1_000_000
    warmup_steps: int = 5000
    target_entropy: Optional[float] = None  # default: -action_dim
    initial_log_alpha: float = 0.0

    def __post_init__(self):
        check_fields(self)
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate!r}")
        if self.batch_size < 1 or self.train_freq < 1:
            raise ValueError("batch_size and train_freq must be >= 1")
        if self.buffer_capacity < 1 or self.warmup_steps < 0:
            raise ValueError("buffer_capacity must be >= 1 and warmup_steps >= 0")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def layer_sizes(obs_dim: int, action_dim: int) -> Tuple[List[int], List[int]]:
    """Layer widths of the policy and of each critic."""
    return [obs_dim, *HIDDEN_SIZES, 2 * action_dim], [obs_dim + action_dim, *HIDDEN_SIZES, 1]


# ----------------------------------------------------------------------
# Policy
@dataclass
class PolicyNet:
    """Maps observations to per-dimension action mean and raw log-std."""

    params: DenseParams
    action_dim: int


def _policy_heads(policy: PolicyNet, obs: np.ndarray, ws: Optional[Workspace] = None):
    out, cache = neural.forward(policy.params, obs, ws=ws)
    a = policy.action_dim
    mean = out[:, :a]
    raw = out[:, a:]
    log_std = np.clip(raw, LOG_STD_MIN, LOG_STD_MAX)
    clamp_mask = (raw > LOG_STD_MIN) & (raw < LOG_STD_MAX)
    return mean, log_std, clamp_mask, cache


def _squashed_log_prob(u: np.ndarray, mean: np.ndarray, log_std: np.ndarray) -> np.ndarray:
    # Gaussian density at u minus the tanh change of variables, with the
    # correction in the stable softplus form.
    std = np.exp(log_std)
    gauss = -0.5 * ((u - mean) / std) ** 2 - log_std - _LOG_SQRT_2PI
    correction = 2.0 * (math.log(2.0) - u - np.logaddexp(0.0, -2.0 * u))
    return np.sum(gauss - correction, axis=1)


def _squash(policy: PolicyNet, obs: np.ndarray, noise: np.ndarray, ws: Optional[Workspace] = None):
    """Reparameterized squashed sample for a fixed noise draw."""
    mean, log_std, clamp_mask, cache = _policy_heads(policy, obs, ws)
    std = np.exp(log_std)
    u = mean + std * noise
    action = np.tanh(u)
    log_prob = _squashed_log_prob(u, mean, log_std)
    aux = {"mean": mean, "log_std": log_std, "std": std, "u": u,
           "clamp_mask": clamp_mask, "cache": cache, "noise": noise}
    return action, log_prob, aux


def sample_action(policy: PolicyNet, obs: np.ndarray, rng: np.random.Generator) -> Tuple[np.ndarray, float]:
    """Draw one action in (-1, 1)^a with its log probability."""
    obs = np.asarray(obs, dtype=float).reshape(1, -1)
    noise = rng.standard_normal((1, policy.action_dim))
    action, log_prob, _ = _squash(policy, obs, noise)
    return action[0], float(log_prob[0])


def deterministic_action(policy: PolicyNet, obs: np.ndarray) -> np.ndarray:
    """tanh of the policy mean, used for evaluation."""
    obs = np.asarray(obs, dtype=float).reshape(1, -1)
    mean, _, _, _ = _policy_heads(policy, obs)
    return np.tanh(mean[0])


# ----------------------------------------------------------------------
# Critics
@dataclass
class TwinCritics:
    q1: DenseParams
    q2: DenseParams
    target_q1: DenseParams
    target_q2: DenseParams


class Workspaces(NamedTuple):
    """One ``neural.Workspace`` per network slot; the target critics use the
    online critics' slots.  A slot left None makes its calls allocate.  The
    slots may share one scratch workspace, as the update never overlaps
    two networks' backward or optimizer steps."""

    policy: Optional[Workspace] = None
    q1: Optional[Workspace] = None
    q2: Optional[Workspace] = None


def critic_value(params: DenseParams, obs: np.ndarray, action: np.ndarray,
                 ws: Optional[Workspace] = None) -> Tuple[np.ndarray, Workspace]:
    shape = (obs.shape[0], obs.shape[1] + action.shape[1])
    x = np.concatenate([obs, action], axis=1, out=None if ws is None else ws.array("input", shape))
    out, cache = neural.forward(params, x, ws=ws)
    return out[:, 0], cache


def soft_update(online: DenseParams, target: DenseParams, tau: float = 0.005,
                ws: Optional[Workspace] = None) -> DenseParams:
    """target = tau * online + (1 - tau) * target, element-wise and in place
    on ``target``, which is returned.  ``ws`` holds the scratch vector."""
    blend = (Workspace() if ws is None else ws).temp("update", online.flat.shape)
    np.multiply(online.flat, tau, out=blend)
    target.flat *= 1.0 - tau
    target.flat += blend
    return target


# ----------------------------------------------------------------------
# Replay buffer
class Transition(NamedTuple):
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    done: float


class Batch(NamedTuple):
    obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    next_obs: np.ndarray
    done: np.ndarray


class ReplayBuffer:
    """Uniform ring buffer over transitions that stores each observation once.

    Row ``i`` holds a transition's state, action, reward and done flag.  Its
    next state is the state of row ``i + 1`` (mod capacity) when ``_slot[i]``
    is -1, else row ``_slot[i]`` of the ``_tail`` ring, which keeps the next
    states that do not start the following row, such as an episode's last.
    The newest row always holds a tail slot, as its successor is not known
    yet; the next ``add`` frees it when the new state equals it bit for bit.
    A new row takes the newest row's slot when that one was just freed, and
    the slot after it (mod capacity) otherwise, the first row slot 0.  Slots
    are thus taken in row order, so the tail ring, of ``capacity`` rows like
    the main one, reuses a slot only once the row that held it is
    overwritten, and the rows' slots alone fix where the next one goes.
    ``_slot`` is float64, like every checkpoint entry, so that a checkpoint
    reads straight into it.

    Storage for the full capacity is allocated once, zero-filled, so the OS
    backs it with memory only as rows are written; the tail ring gets about
    one row per episode.  Once full, the oldest records are overwritten.
    """

    def __init__(self, capacity: int, obs_dim: int, action_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self._size = 0
        self._cursor = 0
        self._obs = np.zeros((capacity, obs_dim))
        self._action = np.zeros((capacity, action_dim))
        self._reward = np.zeros(capacity)
        self._done = np.zeros(capacity)
        self._slot = np.zeros(capacity)
        self._tail = np.zeros((capacity, obs_dim))
        self._tail_size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, transition: Transition) -> None:
        i = self._cursor
        self._obs[i] = transition.state
        slot = 0
        if self._size:
            slot = int(self._slot[i - 1])
            # Bytes, not values, so that -0.0 and NaN payloads stay exact.
            if self._obs[i].tobytes() == self._tail[slot].tobytes():
                self._slot[i - 1] = -1.0
            else:
                slot = (slot + 1) % self.capacity
        self._tail[slot] = transition.next_state
        self._slot[i] = slot
        self._tail_size = max(self._tail_size, slot + 1)
        self._action[i] = transition.action
        self._reward[i] = transition.reward
        self._done[i] = transition.done
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, rng: np.random.Generator, batch_size: int) -> Batch:
        if self._size < 1:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self._size, size=batch_size)
        next_obs = self._obs[(idx + 1) % self.capacity]
        slot = self._slot[idx]
        held = np.flatnonzero(slot >= 0.0)
        next_obs[held] = self._tail[slot[held].astype(np.intp)]
        return Batch(
            obs=self._obs[idx],
            action=self._action[idx],
            reward=self._reward[idx],
            next_obs=next_obs,
            done=self._done[idx],
        )


# ----------------------------------------------------------------------
# Temperature
@dataclass
class Temperature:
    """Trainable entropy weight, alpha = exp(log_alpha) > 0 by construction.
    ``log_alpha`` is a 1-element float64 array, which ``SacAgent.opt_alpha``
    steps in place."""

    log_alpha: np.ndarray
    target_entropy: float

    @classmethod
    def initial(cls, config: TrainConfig, action_dim: int) -> "Temperature":
        """The temperature a run of ``config`` starts from; the target
        entropy defaults to -action_dim."""
        target_entropy = -float(action_dim) if config.target_entropy is None else config.target_entropy
        return cls(np.array([config.initial_log_alpha], dtype=float), target_entropy)

    @property
    def alpha(self) -> float:
        return math.exp(self.log_alpha[0])


# ----------------------------------------------------------------------
# Losses and their hand-derived gradients (all finite-difference checked).
def critic_target(batch: Batch, critics: TwinCritics, policy: PolicyNet,
                  alpha: float, gamma: float, rng: np.random.Generator,
                  ws: Workspaces = Workspaces()) -> np.ndarray:
    """Soft bootstrap y = r + gamma (1 - done) (min target Q - alpha log pi)."""
    noise = rng.standard_normal((batch.next_obs.shape[0], policy.action_dim))
    next_action, next_log_prob, _ = _squash(policy, batch.next_obs, noise, ws.policy)
    q1, _ = critic_value(critics.target_q1, batch.next_obs, next_action, ws.q1)
    q2, _ = critic_value(critics.target_q2, batch.next_obs, next_action, ws.q2)
    soft_value = np.minimum(q1, q2) - alpha * next_log_prob
    return batch.reward + gamma * (1.0 - batch.done) * soft_value


def critic_loss_and_grads(params: DenseParams, obs: np.ndarray, action: np.ndarray,
                          y: np.ndarray, ws: Optional[Workspace] = None) -> Tuple[float, DenseParams]:
    """Loss 0.5 mean((Q - y)^2) and its parameter gradient, which lives in
    ``ws`` when one is given and in new arrays otherwise."""
    q, cache = critic_value(params, obs, action, ws)
    diff = q - y
    loss = 0.5 * float(np.mean(diff**2))
    grad_out = (diff / diff.shape[0])[:, None]
    grads, _ = neural.backward(params, cache, grad_out, ws, input_grad=False)
    return loss, grads


def policy_loss_and_grads(policy: PolicyNet, critics: TwinCritics, alpha: float,
                          obs: np.ndarray, noise: np.ndarray, ws: Workspaces = Workspaces()):
    """Loss mean(alpha log pi - min Q) with its gradient w.r.t. the policy.

    The action is reparameterized (a = tanh(mean + std * noise) for the
    given noise), so gradients flow through both the log-probability and
    the critic input; critic parameters receive no update here, so the
    critics back-propagate for their input gradient only.
    """
    batch_size = obs.shape[0]
    action, log_prob, aux = _squash(policy, obs, noise, ws.policy)
    q1, c1 = critic_value(critics.q1, obs, action, ws.q1)
    q2, c2 = critic_value(critics.q2, obs, action, ws.q2)
    q_min = np.minimum(q1, q2)
    loss = float(np.mean(alpha * log_prob - q_min))

    # d loss / d action, routed through whichever critic attains the min.
    take1 = (q1 <= q2).astype(float)[:, None]
    gout = -1.0 / batch_size
    _, gin1 = neural.backward(critics.q1, c1, gout * take1, ws.q1, param_grads=False)
    _, gin2 = neural.backward(critics.q2, c2, gout * (1.0 - take1), ws.q2, param_grads=False)
    obs_dim = obs.shape[1]
    dloss_daction = gin1[:, obs_dim:] + gin2[:, obs_dim:]

    tanh_u = action
    std, eps = aux["std"], aux["noise"]
    one_minus_a2 = 1.0 - tanh_u**2
    # Total reparameterized derivatives of log pi: 2 tanh(u) w.r.t. the
    # mean, 2 eps std tanh(u) - 1 w.r.t. log std.
    g_mean = alpha * 2.0 * tanh_u / batch_size + dloss_daction * one_minus_a2
    g_log_std = (
        alpha * (2.0 * eps * std * tanh_u - 1.0) / batch_size
        + dloss_daction * one_minus_a2 * eps * std
    ) * aux["clamp_mask"]
    grads, _ = neural.backward(policy.params, aux["cache"],
                               np.concatenate([g_mean, g_log_std], axis=1), ws.policy,
                               input_grad=False)
    return loss, grads, log_prob


def temperature_loss_and_grad(log_alpha: float, log_prob: np.ndarray,
                              target_entropy: float) -> Tuple[float, float]:
    err = float(np.mean(log_prob + target_entropy))
    return -log_alpha * err, -err


# ----------------------------------------------------------------------
@dataclass
class UpdateInfo:
    critic1_loss: float
    critic2_loss: float
    policy_loss: float
    alpha_loss: float
    alpha: float

    def is_finite(self) -> bool:
        return all(math.isfinite(v) for v in
                   (self.critic1_loss, self.critic2_loss, self.policy_loss,
                    self.alpha_loss, self.alpha))


class SacAgent:
    """Networks, optimizers and temperature bundled with their update rules.

    The agent keeps one workspace per network slot, all three sharing one
    scratch workspace, so after the first update at a given batch size an
    update allocates no network-sized arrays: parameters, moments and
    target copies change in place.  The optimizer states start at zero; a
    checkpoint load fills them in.
    """

    def __init__(self, policy: PolicyNet, critics: TwinCritics,
                 temperature: Temperature, config: TrainConfig):
        self.policy = policy
        self.critics = critics
        self.temperature = temperature
        self.config = config
        self.opt_policy = AdamState.zeros(policy.params.flat.size)
        self.opt_q1 = AdamState.zeros(critics.q1.flat.size)
        self.opt_q2 = AdamState.zeros(critics.q2.flat.size)
        self.opt_alpha = AdamState.zeros(1)
        scratch = Workspace()
        self.ws = Workspaces(Workspace(scratch), Workspace(scratch), Workspace(scratch))

    @classmethod
    def create(cls, seed: int, obs_dim: int, action_dim: int, config: TrainConfig) -> "SacAgent":
        policy_sizes, critic_sizes = layer_sizes(obs_dim, action_dim)
        seeds = [int(s) for s in np.random.SeedSequence((seed, 0)).generate_state(3)]
        policy = PolicyNet(neural.init_params(seeds[0], policy_sizes), action_dim)
        q1, q2 = (neural.init_params(s, critic_sizes) for s in seeds[1:])
        critics = TwinCritics(q1, q2, target_q1=q1.clone(), target_q2=q2.clone())
        return cls(policy, critics, Temperature.initial(config, action_dim), config)

    # -------------------------------------------------------- updates
    def update_critics(self, batch: Batch, y: np.ndarray) -> Tuple[float, float]:
        lr = self.config.learning_rate
        loss1, grads1 = critic_loss_and_grads(self.critics.q1, batch.obs, batch.action, y, self.ws.q1)
        neural.adam_step(self.critics.q1.flat, grads1.flat, self.opt_q1, lr=lr, ws=self.ws.q1)
        loss2, grads2 = critic_loss_and_grads(self.critics.q2, batch.obs, batch.action, y, self.ws.q2)
        neural.adam_step(self.critics.q2.flat, grads2.flat, self.opt_q2, lr=lr, ws=self.ws.q2)
        return loss1, loss2

    def update_policy(self, batch: Batch, rng: np.random.Generator) -> Tuple[float, np.ndarray]:
        noise = rng.standard_normal((batch.obs.shape[0], self.policy.action_dim))
        loss, grads, log_prob = policy_loss_and_grads(
            self.policy, self.critics, self.temperature.alpha, batch.obs, noise, self.ws
        )
        neural.adam_step(self.policy.params.flat, grads.flat, self.opt_policy,
                         lr=self.config.learning_rate, ws=self.ws.policy)
        return loss, log_prob

    def update_temperature(self, log_prob: np.ndarray) -> float:
        log_alpha = self.temperature.log_alpha
        loss, grad = temperature_loss_and_grad(float(log_alpha[0]), log_prob,
                                               self.temperature.target_entropy)
        neural.adam_step(log_alpha, np.array([grad]), self.opt_alpha, lr=self.config.learning_rate)
        return loss

    def update(self, batch: Batch, rng: np.random.Generator) -> UpdateInfo:
        y = critic_target(batch, self.critics, self.policy,
                          self.temperature.alpha, self.config.gamma, rng, self.ws)
        loss1, loss2 = self.update_critics(batch, y)
        policy_loss, log_prob = self.update_policy(batch, rng)
        alpha_loss = self.update_temperature(log_prob)
        tau = self.config.tau
        soft_update(self.critics.q1, self.critics.target_q1, tau, self.ws.q1)
        soft_update(self.critics.q2, self.critics.target_q2, tau, self.ws.q2)
        info = UpdateInfo(loss1, loss2, policy_loss, alpha_loss, self.temperature.alpha)
        if not info.is_finite():
            raise FloatingPointError(f"non-finite update: {info}")
        return info


# ----------------------------------------------------------------------
# Training loop
@dataclass
class EpisodeMetrics:
    episode: int
    env_steps: int
    updates: int
    episode_return: float
    r_dist_total: float
    r_align_total: float
    r_surr_total: float
    r_contact_total: float
    success: bool
    critic1_loss: float
    critic2_loss: float
    policy_loss: float
    alpha_loss: float
    alpha: float
    buffer_size: int


def episode_seed(master_seed: int, episode: int, stream: int = 3) -> int:
    """Stateless per-episode environment seed, stable across resumes."""
    return int(np.random.SeedSequence((master_seed, stream, episode)).generate_state(1)[0])


class Trainer:
    """Owns the agent, buffer and RNG streams; checkpoints capture enough
    state that a resumed run reproduces the uninterrupted metrics stream."""

    def __init__(self, env, config: TrainConfig, agent: Optional[SacAgent] = None):
        self.env = env
        self.config = config
        if agent is None:
            agent = SacAgent.create(config.seed, env.observation_dim, env.action_dim, config)
        self.agent = agent
        self.buffer = ReplayBuffer(config.buffer_capacity, env.observation_dim, env.action_dim)
        self.rng_act = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
        self.rng_learn = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))
        self.episode = 0
        self.env_steps = 0
        self.updates = 0
        self._last_update: Optional[UpdateInfo] = None

    def run(self) -> Iterator[EpisodeMetrics]:
        while self.episode < self.config.episodes:
            metrics = self._run_episode(self.episode)
            self.episode += 1
            yield metrics

    def _run_episode(self, ep: int) -> EpisodeMetrics:
        cfg = self.config
        obs = self.env.reset(episode_seed(cfg.seed, ep))
        totals = np.zeros(4)
        episode_return = 0.0
        for _ in range(self.env.config.episode_length):
            if self.env_steps < cfg.warmup_steps:
                action = self.rng_act.uniform(-1.0, 1.0, self.env.action_dim)
            else:
                action, _ = sample_action(self.agent.policy, obs, self.rng_act)
            result = self.env.step(action)
            self.buffer.add(Transition(obs, action, result.reward, result.obs, float(result.done)))
            obs = result.obs
            self.env_steps += 1
            episode_return += result.reward
            totals += np.array(result.terms)
            if (
                self.env_steps >= cfg.warmup_steps
                and self.env_steps % cfg.train_freq == 0
                and len(self.buffer) >= cfg.batch_size
            ):
                try:
                    self._last_update = self.agent.update(
                        self.buffer.sample(self.rng_learn, cfg.batch_size), self.rng_learn
                    )
                except FloatingPointError as exc:
                    raise RuntimeError(f"training halted at env step {self.env_steps}: {exc}") from exc
                self.updates += 1
        last = self._last_update
        nan = float("nan")
        return EpisodeMetrics(
            episode=ep,
            env_steps=self.env_steps,
            updates=self.updates,
            episode_return=episode_return,
            r_dist_total=float(totals[0]),
            r_align_total=float(totals[1]),
            r_surr_total=float(totals[2]),
            r_contact_total=float(totals[3]),
            success=self.env.is_success(),
            critic1_loss=last.critic1_loss if last else nan,
            critic2_loss=last.critic2_loss if last else nan,
            policy_loss=last.policy_loss if last else nan,
            alpha_loss=last.alpha_loss if last else nan,
            alpha=self.agent.temperature.alpha,
            buffer_size=len(self.buffer),
        )

    # -------------------------------------------------------- persistence
    # A checkpoint (format v7) is the ``neural.save_arrays`` container of the
    # table of ``checkpoint_table``, with the scalars that no entry implies as
    # the header's JSON meta.  The network widths and the buffer's row and
    # tail counts are the entries' shapes, every Adam step count is
    # ``updates`` (each update steps all four optimizers once), and the
    # target entropy and the rest of the learner settings come from the
    # config.  ``save`` writes the table; ``load`` reads each entry of the
    # file straight into the same table of a zero-filled trainer.
    #
    # A policy snapshot (``save_policy``) is the same container with the
    # same meta, but only the ``policy`` entry and zero-row ``buffer.obs``,
    # ``buffer.action`` and ``buffer.tail`` entries, which carry the widths
    # at no data bytes.  ``load_policy`` reads either; ``load`` refuses a
    # snapshot.
    def _adam(self):
        return [(name, getattr(self.agent, f"opt_{name}")) for name in _OPTIMIZERS]

    def checkpoint_table(self) -> Dict[str, np.ndarray]:
        """Checkpoint entry name -> the live array it saves and restores:
        each network, Adam moment and the log temperature whole, the
        buffer's filled rows and the tail rows in use."""
        critics, buf = self.agent.critics, self.buffer
        table = {"policy": self.agent.policy.params.flat, "q1": critics.q1.flat, "q2": critics.q2.flat,
                 "target_q1": critics.target_q1.flat, "target_q2": critics.target_q2.flat,
                 "log_alpha": self.agent.temperature.log_alpha}
        for name, opt in self._adam():
            table[f"adam.{name}.m"] = opt.m
            table[f"adam.{name}.v"] = opt.v
        for name in ("obs", "action", "reward", "done", "slot"):
            table[f"buffer.{name}"] = getattr(buf, f"_{name}")[: len(buf)]
        table["buffer.tail"] = buf._tail[: buf._tail_size]
        return table

    def _meta(self) -> Dict:
        return {"version": CHECKPOINT_VERSION, "seed": self.config.seed,
                "buffer_capacity": self.buffer.capacity, "buffer_cursor": self.buffer._cursor,
                "episode": self.episode, "env_steps": self.env_steps, "updates": self.updates,
                "rng_act": self.rng_act.bit_generator.state,
                "rng_learn": self.rng_learn.bit_generator.state}

    def save(self, path) -> None:
        neural.save_arrays(path, self.checkpoint_table(), self._meta())

    def save_policy(self, path) -> None:
        """Write the policy snapshot of this state to ``path``."""
        table = self.checkpoint_table()
        neural.save_arrays(path, {name: table[name] if name == "policy" else table[name][:0]
                                  for name in _SNAPSHOT_ENTRIES}, self._meta())

    @classmethod
    def load(cls, path, env, config: TrainConfig) -> "Trainer":
        meta, shapes = _checked_header(path, env)
        if shapes.keys() == _SNAPSHOT_ENTRIES:
            raise ValueError(f"{path}: a policy snapshot holds no state to resume from; "
                             f"resume from a checkpoint_*.ckpt")
        size, tail_size = shapes["buffer.obs"][0], shapes["buffer.tail"][0]
        for key in ("seed", "buffer_capacity"):
            if meta[key] != getattr(config, key):
                raise ValueError(f"{path}: checkpoint was written with {key} {meta[key]}, "
                                 f"the run asks for {key} {getattr(config, key)}")
        # A run may be extended, never cut short.
        if meta["episode"] > config.episodes:
            raise ValueError(f"{path}: checkpoint has run {meta['episode']} episodes, "
                             f"the run asks for {config.episodes}")
        policy_sizes, critic_sizes = layer_sizes(env.observation_dim, env.action_dim)
        zeros = DenseParams.zeros
        critics = TwinCritics(*(zeros(critic_sizes) for _ in range(4)))
        agent = SacAgent(PolicyNet(zeros(policy_sizes), env.action_dim), critics,
                         Temperature.initial(config, env.action_dim), config)
        trainer = cls(env, config, agent)
        buf = trainer.buffer
        capacity, cursor = buf.capacity, meta["buffer_cursor"]
        if not (size <= capacity and tail_size <= capacity and 0 <= cursor < capacity
                and (cursor == size or size == capacity)):
            raise ValueError(f"{path}: buffer_cursor {cursor} with buffer.obs of {size} rows and "
                             f"buffer.tail of {tail_size} rows is no state of a ring of {capacity} rows "
                             f"(buffer_capacity)")
        buf._size, buf._cursor, buf._tail_size = size, cursor, tail_size
        for _, opt in trainer._adam():
            opt.t = meta["updates"]
        trainer.episode, trainer.env_steps = meta["episode"], meta["env_steps"]
        trainer.updates = meta["updates"]
        for key in ("rng_act", "rng_learn"):
            try:
                getattr(trainer, key).bit_generator.state = meta[key]
            except (KeyError, TypeError, ValueError) as err:
                raise ValueError(f"{path}: meta: {key}: {err}") from None
        neural.load_arrays(path, trainer.checkpoint_table())
        # The newest row's slot also fixes the slot the next ``add`` takes.
        slot = buf._slot[: len(buf)]
        if len(buf) and not (np.all((slot == np.floor(slot)) & (slot >= -1.0) & (slot < buf._tail_size))
                             and slot[buf._cursor - 1] >= 0.0):
            raise ValueError(f"{path}: buffer.slot: a slot is neither -1 nor one of the {buf._tail_size} "
                             f"rows of buffer.tail, or the newest row has none")
        return trainer

    @staticmethod
    def load_policy(path, env) -> PolicyNet:
        """Just the policy of the checkpoint or policy snapshot at ``path``,
        for evaluation in ``env``; no other entry of the file is read."""
        _checked_header(path, env)
        policy = PolicyNet(DenseParams.zeros(layer_sizes(env.observation_dim, env.action_dim)[0]),
                           env.action_dim)
        neural.load_arrays(path, {"policy": policy.params.flat})
        return policy


# Every meta key ``Trainer.load`` reads, with its JSON type.  A count is an
# integer >= 0.
_META_TYPES = {
    "seed": "integer", "buffer_capacity": "integer", "buffer_cursor": "integer",
    "episode": "count", "env_steps": "count", "updates": "count",
    "rng_act": "object", "rng_learn": "object",
}
_JSON_TYPES = {"integer": int, "object": dict}
# The entries of a policy snapshot: the policy, and buffer entries of no
# rows, which carry the widths.
_SNAPSHOT_ENTRIES = {"policy", "buffer.obs", "buffer.action", "buffer.tail"}


def _checked_header(path, env) -> Tuple[Dict, Dict[str, Tuple[int, ...]]]:
    """The meta and the entry shapes of the checkpoint or policy snapshot at
    ``path``.  The file must be of this format,
    its meta must hold every key of ``_META_TYPES`` with its type, and
    ``buffer.obs`` and ``buffer.action`` must be of the widths ``env``
    needs."""
    meta, shapes = neural.read_header(path)
    version = meta.get("version") if isinstance(meta, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: checkpoint format v{version}, "
                         f"this program reads v{CHECKPOINT_VERSION}")
    for key, kind in _META_TYPES.items():
        if key not in meta:
            raise ValueError(f"{path}: meta: {key} missing")
        value = meta[key]
        json_kind = "integer" if kind == "count" else kind
        if type(value) is not _JSON_TYPES[json_kind]:
            raise ValueError(f"{path}: meta: {key} must be {json_kind}, got {value!r}")
        if kind == "count" and value < 0:
            raise ValueError(f"{path}: meta: {key} must be >= 0, got {value!r}")
    for name in ("buffer.obs", "buffer.action", "buffer.tail"):
        if name not in shapes:
            raise ValueError(f"{path}: {name}: entry missing")
        if len(shapes[name]) != 2:
            raise ValueError(f"{path}: {name}: shape {shapes[name]}, expected (rows, width)")
    (_, obs_dim), (_, action_dim) = shapes["buffer.obs"], shapes["buffer.action"]
    if (obs_dim, action_dim) != (env.observation_dim, env.action_dim):
        raise ValueError(
            f"{path}: checkpoint has obs/action widths ({obs_dim}, {action_dim}) in "
            f"buffer.obs/buffer.action, the environment has ({env.observation_dim}, {env.action_dim}) "
            f"with tactile={env.config.tactile_enabled}; fix the --tactile flag or the checkpoint"
        )
    return meta, shapes
