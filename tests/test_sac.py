import math
import re
import struct
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from softcap import harness, neural, sac
from softcap.env import SoftCaptureEnv, table_row
from softcap.neural import DenseParams
from softcap.sac import (
    Batch,
    PolicyNet,
    ReplayBuffer,
    SacAgent,
    Temperature,
    TrainConfig,
    Trainer,
    Transition,
    TwinCritics,
    critic_loss_and_grads,
    critic_target,
    critic_value,
    deterministic_action,
    sample_action,
    soft_update,
    temperature_loss_and_grad,
)

from conftest import small_env_config, small_train_config

OBS_DIM = 7
ACT_DIM = 2


def tiny_policy(seed=0, obs_dim=OBS_DIM, action_dim=ACT_DIM):
    # Full-depth policy head at toy width, fast enough for finite differences.
    sizes = [obs_dim, 16, 16, 2 * action_dim]
    return PolicyNet(params=neural.init_params(seed, sizes), action_dim=action_dim)


def tiny_critics(seed=0, obs_dim=OBS_DIM, action_dim=ACT_DIM):
    sizes = [obs_dim + action_dim, 16, 16, 1]
    q1 = neural.init_params(seed + 1, sizes)
    q2 = neural.init_params(seed + 2, sizes)
    return TwinCritics(q1=q1, q2=q2, target_q1=q1.clone(), target_q2=q2.clone())


def constant_critic(value: float, obs_dim=OBS_DIM, action_dim=ACT_DIM) -> DenseParams:
    # Zero weights, bias on the output layer: Q(s, a) == value everywhere.
    sizes = [obs_dim + action_dim, 4, 4, 1]
    params = DenseParams(
        [np.zeros((o, i)) for i, o in zip(sizes[:-1], sizes[1:])],
        [np.zeros(o) for o in sizes[1:]],
    )
    params.biases[-1][0] = value
    return params


# ---------------------------------------------------------------- sampling
def test_sample_action_within_open_interval(rng):
    policy = tiny_policy()
    for _ in range(200):
        action, log_prob = sample_action(policy, rng.standard_normal(OBS_DIM), rng)
        assert action.shape == (ACT_DIM,)
        assert np.all(action > -1.0) and np.all(action < 1.0)
        assert math.isfinite(log_prob)


def test_sample_action_degenerate_std_returns_tanh_mean(rng):
    policy = tiny_policy()
    # Force the log-std head far below the clamp floor.
    policy.params.biases[-1][ACT_DIM:] = -60.0
    obs = rng.standard_normal(OBS_DIM)
    expected = deterministic_action(policy, obs)
    for _ in range(20):
        action, _ = sample_action(policy, obs, rng)
        assert np.allclose(action, expected, atol=1e-7)


def test_log_prob_density_integrates_to_one(rng):
    # 1-D action: numerically integrate the implied density over (-1, 1)
    # with an independent change-of-variables oracle.
    policy = tiny_policy(seed=3, action_dim=1)
    obs = rng.standard_normal((1, OBS_DIM))
    mean, log_std, _, _ = sac._policy_heads(policy, obs)
    mu, sigma = float(mean[0, 0]), float(np.exp(log_std[0, 0]))

    u = np.linspace(mu - 9 * sigma, mu + 9 * sigma, 40_001)
    a = np.tanh(u)
    gauss = np.exp(-0.5 * ((u - mu) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    # Integrating the a-space density over a equals integrating the
    # u-space Gaussian over u.
    assert abs(np.trapezoid(gauss, u) - 1.0) < 1e-6

    # Module's density evaluated at the same sample points.
    module_logp = sac._squashed_log_prob(u[:, None], np.full((len(u), 1), mu),
                                         np.full((len(u), 1), math.log(sigma)))
    density_a = np.exp(module_logp)
    integral = np.trapezoid(density_a, a)
    assert abs(integral - 1.0) < 0.01


def test_log_prob_matches_sample_histogram(rng):
    policy = tiny_policy(seed=5, action_dim=1)
    obs = np.tile(rng.standard_normal(OBS_DIM), (1_000_000, 1))
    noise = rng.standard_normal((1_000_000, 1))
    actions, _, _ = sac._squash(policy, obs, noise)

    mean, log_std, _, _ = sac._policy_heads(policy, obs[:1])
    mu, sigma = float(mean[0, 0]), float(np.exp(log_std[0, 0]))
    edges = np.linspace(-1.0, 1.0, 41)
    counts, _ = np.histogram(actions[:, 0], bins=edges)
    emp = counts / len(actions)

    # Expected bin mass from the u-space Gaussian CDF.
    from math import erf

    def cdf_u(x):
        return 0.5 * (1.0 + erf((x - mu) / (sigma * math.sqrt(2.0))))

    expected = np.array([
        cdf_u(np.arctanh(min(hi, 1 - 1e-12))) - cdf_u(np.arctanh(max(lo, -1 + 1e-12)))
        for lo, hi in zip(edges[:-1], edges[1:])
    ])
    assert abs(emp.sum() - 1.0) < 1e-9
    assert 0.5 * np.abs(emp - expected).sum() < 0.01  # total variation under 1%


# ---------------------------------------------------------------- critic targets
def make_batch(rng, n=6, obs_dim=OBS_DIM, action_dim=ACT_DIM, done=None):
    return Batch(
        obs=rng.standard_normal((n, obs_dim)),
        action=np.clip(rng.standard_normal((n, action_dim)), -0.99, 0.99),
        reward=rng.standard_normal(n),
        next_obs=rng.standard_normal((n, obs_dim)),
        done=np.zeros(n) if done is None else np.asarray(done, dtype=float),
    )


def test_critic_target_terminal_is_reward(rng):
    batch = make_batch(rng, done=np.ones(6))
    y = critic_target(batch, tiny_critics(), tiny_policy(), alpha=0.7, gamma=0.99,
                      rng=np.random.default_rng(0))
    assert np.allclose(y, batch.reward)


def test_critic_target_gamma_zero_is_reward(rng):
    batch = make_batch(rng)
    y = critic_target(batch, tiny_critics(), tiny_policy(), alpha=0.7, gamma=1e-300,
                      rng=np.random.default_rng(0))
    assert np.allclose(y, batch.reward, atol=1e-12)


def test_critic_target_hand_evaluation(rng):
    # Frozen nets, one transition: evaluate the bootstrap formula by hand.
    critics = tiny_critics(seed=9)
    policy = tiny_policy(seed=9)
    batch = make_batch(rng, n=1)
    alpha, gamma = 0.3, 0.97
    sample_rng = np.random.default_rng(123)
    y = critic_target(batch, critics, policy, alpha, gamma, sample_rng)

    check_rng = np.random.default_rng(123)
    noise = check_rng.standard_normal((1, ACT_DIM))
    a2, logp2, _ = sac._squash(policy, batch.next_obs, noise)
    q1, _ = critic_value(critics.target_q1, batch.next_obs, a2)
    q2, _ = critic_value(critics.target_q2, batch.next_obs, a2)
    expected = batch.reward[0] + gamma * (min(q1[0], q2[0]) - alpha * logp2[0])
    assert abs(float(y[0]) - float(expected)) < 1e-12


def test_critic_target_uses_element_wise_minimum(rng):
    critics = tiny_critics()
    critics.target_q1 = constant_critic(1.0)
    critics.target_q2 = constant_critic(5.0)
    batch = make_batch(rng)
    y = critic_target(batch, critics, tiny_policy(), alpha=0.0, gamma=0.5,
                      rng=np.random.default_rng(0))
    assert np.allclose(y, batch.reward + 0.5 * 1.0)
    critics.target_q1, critics.target_q2 = critics.target_q2, critics.target_q1
    y2 = critic_target(batch, critics, tiny_policy(), alpha=0.0, gamma=0.5,
                       rng=np.random.default_rng(0))
    assert np.allclose(y2, batch.reward + 0.5 * 1.0)


def test_no_gradient_leakage_between_online_and_targets(rng):
    critics = tiny_critics(seed=4)
    policy = tiny_policy(seed=4)
    batch = make_batch(rng)
    y_before = critic_target(batch, critics, policy, 0.2, 0.99, np.random.default_rng(7))
    # Perturbing the online critics must not move the bootstrap values.
    critics.q1.weights[0] += 10.0
    critics.q2.weights[1] -= 3.0
    y_after = critic_target(batch, critics, policy, 0.2, 0.99, np.random.default_rng(7))
    assert np.array_equal(y_before, y_after)
    # Perturbing the target copies must move them.
    critics.target_q1.biases[-1] += 1.0
    critics.target_q2.biases[-1] += 1.0
    y_shifted = critic_target(batch, critics, policy, 0.2, 0.99, np.random.default_rng(7))
    assert not np.allclose(y_shifted, y_after)


# ---------------------------------------------------------------- critic update
def test_update_critics_zero_residual_keeps_params(rng):
    agent = SacAgent.create(0, OBS_DIM, ACT_DIM, TrainConfig(episodes=0, batch_size=4))
    batch = make_batch(rng, n=4)
    q1, _ = critic_value(agent.critics.q1, batch.obs, batch.action)
    before = agent.critics.q1.clone()
    agent.update_critics(batch, y=q1)
    # Critic 1 had zero residual everywhere, so Adam moved nothing.
    for a, b in zip(agent.critics.q1.weights, before.weights):
        assert np.array_equal(a, b)


def test_critic_gradient_toy_hand_derivation():
    # Single linear layer, single sample: dL/dW = (Q - y) x.
    params = DenseParams([np.array([[0.5, -0.2, 0.1]])], [np.array([0.0])])
    obs = np.array([[1.0, 2.0]])
    action = np.array([[3.0]])
    x = np.array([1.0, 2.0, 3.0])
    q = float((params.weights[0] @ x).item())
    y = np.array([q - 2.0])
    loss, grads = critic_loss_and_grads(params, obs, action, y)
    assert abs(loss - 0.5 * 4.0) < 1e-12
    assert np.allclose(grads.weights[0], 2.0 * x)
    assert np.allclose(grads.biases[0], [2.0])


def test_critic_regression_converges_on_fixed_batch(rng):
    agent = SacAgent.create(1, OBS_DIM, ACT_DIM, TrainConfig(episodes=0, batch_size=16,
                                                             learning_rate=1e-3))
    batch = make_batch(rng, n=16)
    y = rng.standard_normal(16)
    losses = [agent.update_critics(batch, y)[0] for _ in range(500)]
    assert np.mean(losses[-50:]) < 0.1 * np.mean(losses[:50])


# ---------------------------------------------------------------- policy update
def absolute_value_critic(obs_dim, sign=-1.0) -> DenseParams:
    """Q(s, a) = sign * |a| for 1-D actions, exact with two ReLU units."""
    w1 = np.zeros((2, obs_dim + 1))
    w1[0, obs_dim] = 1.0   # relu(a)
    w1[1, obs_dim] = -1.0  # relu(-a)
    w2 = sign * np.ones((1, 2))
    return DenseParams([w1, w2], [np.zeros(2), np.zeros(1)])


def test_policy_update_converges_to_critic_argmax(rng):
    # Critic rewards a = 0 maximally; with alpha = 0 the mean must shrink.
    config = TrainConfig(episodes=0, batch_size=32, learning_rate=3e-3)
    agent = SacAgent.create(2, OBS_DIM, 1, config)
    agent.policy.params.biases[-1][0] = 1.5  # start well away from the optimum
    q = absolute_value_critic(OBS_DIM)
    agent.critics.q1 = q
    agent.critics.q2 = q.clone()
    agent.temperature.log_alpha[0] = -1e9  # alpha == 0 in double precision
    obs = rng.standard_normal((32, OBS_DIM))
    batch = Batch(obs=obs, action=np.zeros((32, 1)), reward=np.zeros(32),
                  next_obs=obs, done=np.zeros(32))

    def mean_abs_action():
        mean, _, _, _ = sac._policy_heads(agent.policy, obs)
        return float(np.mean(np.abs(np.tanh(mean))))

    before = mean_abs_action()
    for _ in range(300):
        agent.update_policy(batch, rng)
    after = mean_abs_action()
    assert after < 0.25 * before


def test_policy_update_constant_critic_is_pure_entropy_ascent(rng):
    # Constant critic: the loss reduces to alpha E[log pi].  From a nearly
    # deterministic start the std must grow (entropy rises) until it reaches
    # the finite entropy optimum of the squashed distribution; it never
    # escapes the clamp.
    config = TrainConfig(episodes=0, batch_size=64, learning_rate=3e-3)
    agent = SacAgent.create(3, OBS_DIM, ACT_DIM, config)
    agent.policy.params.biases[-1][ACT_DIM:] = -4.0  # tiny initial std
    agent.critics.q1 = constant_critic(2.0)
    agent.critics.q2 = constant_critic(2.0)
    obs = rng.standard_normal((64, OBS_DIM))
    batch = Batch(obs=obs, action=np.zeros((64, ACT_DIM)), reward=np.zeros(64),
                  next_obs=obs, done=np.zeros(64))

    def stats():
        _, log_std, _, _ = sac._policy_heads(agent.policy, obs)
        noise = np.random.default_rng(0).standard_normal((64, ACT_DIM))
        _, log_prob, _ = sac._squash(agent.policy, obs, noise)
        return float(np.mean(log_std)), float(np.mean(log_prob))

    log_std_before, log_prob_before = stats()
    for _ in range(600):
        agent.update_policy(batch, rng)
    log_std_after, log_prob_after = stats()
    assert log_std_after > log_std_before + 1.0
    assert log_prob_after < log_prob_before  # entropy went up
    assert log_std_after <= sac.LOG_STD_MAX


def test_log_std_clamp_respected_after_updates(rng):
    config = TrainConfig(episodes=0, batch_size=16, learning_rate=1e-2)
    agent = SacAgent.create(4, OBS_DIM, ACT_DIM, config)
    obs = rng.standard_normal((16, OBS_DIM))
    batch = Batch(obs=obs, action=np.zeros((16, ACT_DIM)), reward=np.ones(16),
                  next_obs=obs, done=np.zeros(16))
    for _ in range(200):
        agent.update(batch, rng)
    _, log_std, _, _ = sac._policy_heads(agent.policy, rng.standard_normal((64, OBS_DIM)))
    assert np.all(log_std >= sac.LOG_STD_MIN)
    assert np.all(log_std <= sac.LOG_STD_MAX)


# ---------------------------------------------------------------- temperature
def test_temperature_fixed_point(rng):
    policy = tiny_policy()
    obs = rng.standard_normal((64, OBS_DIM))
    noise = rng.standard_normal((64, ACT_DIM))
    _, log_prob, _ = sac._squash(policy, obs, noise)
    target = -float(np.mean(log_prob))
    loss, grad = temperature_loss_and_grad(0.3, log_prob, target)
    assert abs(grad) < 1e-12


def test_temperature_moves_with_entropy_error(rng):
    config = TrainConfig(episodes=0, batch_size=8)
    agent = SacAgent.create(5, OBS_DIM, ACT_DIM, config)
    log_prob = np.full(8, 4.0)  # entropy far below target
    agent.temperature.target_entropy = -2.0
    a0 = agent.temperature.alpha
    agent.update_temperature(log_prob)
    assert agent.temperature.alpha > a0

    agent2 = SacAgent.create(5, OBS_DIM, ACT_DIM, config)
    agent2.temperature.target_entropy = -2.0
    log_prob = np.full(8, -9.0)  # entropy above target
    a0 = agent2.temperature.alpha
    agent2.update_temperature(log_prob)
    assert agent2.temperature.alpha < a0


def test_alpha_stays_positive_under_extreme_gradients():
    t = Temperature(log_alpha=np.zeros(1), target_entropy=-2.0)
    agent_opt = neural.AdamState.zeros(1)
    for g in (1e9, -1e9, 1e9, 3.0, -7.0):
        neural.adam_step(t.log_alpha, np.array([g]), agent_opt, lr=0.5)
        assert t.alpha > 0.0


# ---------------------------------------------------------------- soft updates
def test_soft_update_extremes(rng):
    # soft_update writes into its target, so each call gets its own copy.
    a = neural.init_params(0, [3, 8, 2])
    b = neural.init_params(1, [3, 8, 2])
    full = soft_update(a, b.clone(), tau=1.0)
    for w1, w2 in zip(full.weights, a.weights):
        assert np.array_equal(w1, w2)
    frozen = soft_update(a, b.clone(), tau=0.0)
    for w1, w2 in zip(frozen.weights, b.weights):
        assert np.array_equal(w1, w2)


def test_soft_update_geometric_decay():
    online = neural.init_params(0, [3, 8, 2])
    target = neural.init_params(1, [3, 8, 2])
    tau = 0.005
    gap0 = np.concatenate([
        (t - o).ravel() for t, o in zip(target.weights, online.weights)
    ])
    n = 40
    for _ in range(n):
        target = soft_update(online, target, tau)
    gap = np.concatenate([
        (t - o).ravel() for t, o in zip(target.weights, online.weights)
    ])
    assert np.allclose(gap, (1.0 - tau) ** n * gap0, atol=1e-9)


# ---------------------------------------------------------------- in-place update contract
# The allocating formulas the in-place update replaced, kept as the reference:
# per-layer lists, every intermediate a new array.
def reference_forward(params, x, ws=None):
    pre, acts, h = [], [], np.asarray(x, dtype=float)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre.append(h @ w.T + b)
        h = pre[-1]
        if i < params.n_layers - 1:
            h = np.maximum(h, 0.0)
            acts.append(h)
    return h, (np.asarray(x, dtype=float), pre, acts)


def reference_backward(params, cache, grad_output, ws=None, param_grads=True, input_grad=True):
    inputs, pre, acts = cache
    weights, biases = [None] * params.n_layers, [None] * params.n_layers
    delta = grad_output
    for i in range(params.n_layers - 1, -1, -1):
        below = inputs if i == 0 else acts[i - 1]
        weights[i], biases[i] = delta.T @ below, delta.sum(axis=0)
        delta = delta @ params.weights[i]
        if i > 0:
            delta = delta * (pre[i - 1] > 0.0)
    return DenseParams(weights, biases), delta


def reference_adam_step(params, grads, state, lr=3e-4, beta1=0.9, beta2=0.999, eps=1e-8, ws=None):
    t = state.t + 1
    m_new = beta1 * state.m + (1.0 - beta1) * grads
    v_new = beta2 * state.v + (1.0 - beta2) * grads * grads
    params[...] = params - lr * (m_new / (1.0 - beta1**t)) / (np.sqrt(v_new / (1.0 - beta2**t)) + eps)
    state.m[...], state.v[...] = m_new, v_new
    state.t = t


def reference_soft_update(online, target, tau=0.005, ws=None):
    for w, t in zip(online.weights + online.biases, target.weights + target.biases):
        t[...] = tau * w + (1.0 - tau) * t
    return target


def test_update_matches_allocating_reference_bitwise(monkeypatch):
    def run(reference):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(neural, "forward", reference_forward)
                m.setattr(neural, "backward", reference_backward)
                m.setattr(neural, "adam_step", reference_adam_step)
                m.setattr(sac, "soft_update", reference_soft_update)
            agent = SacAgent.create(3, OBS_DIM, ACT_DIM, TrainConfig(episodes=0, batch_size=64))
            rng = np.random.default_rng(11)
            infos = [agent.update(make_batch(rng, n=64), rng) for _ in range(20)]
        return agent, infos

    agent, infos = run(reference=False)
    ref, ref_infos = run(reference=True)
    assert infos == ref_infos
    pairs = [(agent.policy.params.flat, ref.policy.params.flat)]
    for name in ("q1", "q2", "target_q1", "target_q2"):
        pairs.append((getattr(agent.critics, name).flat, getattr(ref.critics, name).flat))
    for name in ("opt_policy", "opt_q1", "opt_q2", "opt_alpha"):
        opt, ref_opt = getattr(agent, name), getattr(ref, name)
        assert opt.t == ref_opt.t == 20
        pairs += [(opt.m, ref_opt.m), (opt.v, ref_opt.v)]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()
    assert agent.temperature.log_alpha.tobytes() == ref.temperature.log_alpha.tobytes()


def test_critic_grads_without_workspace_are_fresh(rng):
    critics = tiny_critics()
    batch = make_batch(rng)
    y = rng.standard_normal(6)
    _, grads1 = critic_loss_and_grads(critics.q1, batch.obs, batch.action, y)
    kept = grads1.flat.copy()
    critic_loss_and_grads(critics.q1, batch.obs, batch.action, -y)
    assert np.array_equal(grads1.flat, kept)


def test_update_allocates_little_after_warmup(rng):
    import tracemalloc

    obs_dim, act_dim, n = 40, 6, 256
    agent = SacAgent.create(0, obs_dim, act_dim, TrainConfig(episodes=0, batch_size=n))
    batch = make_batch(rng, n=n, obs_dim=obs_dim, action_dim=act_dim)
    for _ in range(2):
        agent.update(batch, rng)
    tracemalloc.start()
    try:
        agent.update(batch, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 256 x 256 float64 activation alone is 0.5 MiB.
    assert peak < 3 * 2**20


# ---------------------------------------------------------------- replay buffer
def fill_transition(i, obs_dim=3, action_dim=2):
    return Transition(
        state=np.full(obs_dim, float(i)),
        action=np.zeros(action_dim),
        reward=float(i),
        next_state=np.full(obs_dim, float(i) + 0.5),
        done=0.0,
    )


def test_buffer_ring_overwrites_oldest():
    buf = ReplayBuffer(capacity=8, obs_dim=3, action_dim=2)
    for i in range(11):
        buf.add(fill_transition(i))
    assert len(buf) == 8
    kept = set(buf._reward[: len(buf)])
    assert kept == set(range(3, 11))


def test_buffer_sampling_is_uniform():
    buf = ReplayBuffer(capacity=16, obs_dim=1, action_dim=1)
    for i in range(10):
        buf.add(fill_transition(i, obs_dim=1, action_dim=1))
    rng = np.random.default_rng(0)
    batch = buf.sample(rng, 1_000_000)
    counts = np.bincount(batch.reward.astype(int), minlength=10)
    assert np.all(np.abs(counts / 1_000_000 - 0.1) < 0.001)  # within 1% of 1/10


def test_buffer_rejects_empty_sample():
    buf = ReplayBuffer(capacity=4, obs_dim=1, action_dim=1)
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 2)


def saved_buffer(tmp_path, capacity, n):
    """Path of a checkpoint whose trainer's buffer of ``capacity`` rows took
    ``n`` transitions, and that buffer."""
    env = SoftCaptureEnv(small_env_config())
    trainer = Trainer(env, small_train_config(episodes=0, buffer_capacity=capacity))
    for i in range(n):
        trainer.buffer.add(fill_transition(i, env.observation_dim, env.action_dim))
    path = tmp_path / "buffer.ckpt"
    trainer.save(path)
    return path, trainer.buffer


def load_buffer(path, capacity):
    return Trainer.load(path, SoftCaptureEnv(small_env_config()),
                        small_train_config(episodes=0, buffer_capacity=capacity)).buffer


BUFFER_ROWS = ("_obs", "_action", "_reward", "_done", "_slot")


def test_buffer_checkpoint_round_trip(tmp_path):
    path, buf = saved_buffer(tmp_path, capacity=8, n=11)
    restored = load_buffer(path, capacity=8)
    assert len(restored) == len(buf)
    assert restored._cursor == buf._cursor == 3
    # No transition continues the one before, so every row keeps a tail
    # slot and the tail ring has wrapped as the main one has.
    assert restored._tail_size == buf._tail_size == 8
    for name in BUFFER_ROWS:
        assert np.array_equal(getattr(restored, name)[: len(buf)], getattr(buf, name)[: len(buf)]), name
    assert np.array_equal(restored._tail[:8], buf._tail[:8])
    a, b = (r.sample(np.random.default_rng(3), 64) for r in (buf, restored))
    assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    # Both go on with the same transitions, two in three of which continue
    # the one before and so free its tail slot: the restored buffer places
    # each next state where the never-saved one does.
    for i in range(11, 27):
        transition = fill_transition(i, buf.obs_dim, buf.action_dim)
        if i % 3:
            transition = transition._replace(state=np.full(buf.obs_dim, i - 0.5))
        buf.add(transition)
        restored.add(transition)
        a, b = (r.sample(np.random.default_rng(i), 64) for r in (buf, restored))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b)), i
    assert np.count_nonzero(buf._slot == -1.0) == 5
    for name in (*BUFFER_ROWS, "_tail"):
        assert getattr(restored, name).tobytes() == getattr(buf, name).tobytes(), name


def test_buffer_restore_then_add_keeps_storage(tmp_path):
    path, buf = saved_buffer(tmp_path, capacity=100, n=40)
    restored = load_buffer(path, capacity=100)
    storage = [getattr(restored, name) for name in (*BUFFER_ROWS, "_tail")]
    restored.add(fill_transition(40, buf.obs_dim, buf.action_dim))
    assert all(getattr(restored, name) is a for name, a in zip((*BUFFER_ROWS, "_tail"), storage))
    assert len(restored) == 41
    assert np.array_equal(restored._reward[:41], np.arange(41.0))
    assert np.array_equal(restored._slot[:41], np.arange(41.0))
    assert restored._tail_size == 41
    assert np.array_equal(restored._tail[:41, 0], np.arange(41.0) + 0.5)


# A checkpoint resumes only into the capacity it was written with, as only
# that run continues it; wrapped or not, smaller or larger, any other is refused.
@pytest.mark.parametrize("saved, n, capacity", [(8, 6, 4), (30, 40, 100), (30, 20, 20), (30, 20, 100)])
def test_buffer_restore_into_another_capacity_rejected(tmp_path, saved, n, capacity):
    path, _ = saved_buffer(tmp_path, capacity=saved, n=n)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: checkpoint was written with "
                                         f"buffer_capacity {saved}, the run asks for buffer_capacity {capacity}$"):
        load_buffer(path, capacity)


@pytest.mark.parametrize("n, field, value, message", [
    (40, "buffer_cursor", 50, "buffer_cursor 50 with buffer.obs of 30 rows and buffer.tail of 30 rows"),
    (25, "buffer_cursor", 3, "buffer_cursor 3 with buffer.obs of 25 rows and buffer.tail of 25 rows"),
])
def test_buffer_meta_out_of_range_rejected(tmp_path, n, field, value, message):
    path, _ = saved_buffer(tmp_path, capacity=30, n=n)
    bad = rewrite_checkpoint(path, tmp_path / "bad.ckpt", lambda arrays, meta: meta.update({field: value}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {message} is no state of a ring of 30 rows "
                                         r"\(buffer_capacity\)$"):
        load_buffer(bad, capacity=30)


# The buffer's row and tail counts are its entries' shapes: an entry whose
# rows disagree with buffer.obs's, or a count above the capacity, is refused
# with the entry named.
@pytest.mark.parametrize("name, rows, message", [
    ("buffer.action", 24, r"buffer.action: shape \(24, \d+\), expected \(25, \d+\)$"),
    ("buffer.obs", 31, "buffer_cursor 25 with buffer.obs of 31 rows and buffer.tail of 25 rows is no"),
    ("buffer.tail", 31, "buffer_cursor 25 with buffer.obs of 25 rows and buffer.tail of 31 rows is no"),
], ids=["buffer.action", "buffer.obs", "buffer.tail"])
def test_buffer_rows_out_of_range_rejected(tmp_path, name, rows, message):
    path, _ = saved_buffer(tmp_path, capacity=30, n=25)
    bad = rewrite_checkpoint(path, tmp_path / "bad.ckpt", lambda arrays, meta: arrays.update(
        {name: np.resize(arrays[name], (rows, arrays[name].shape[1]))}))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: {message}"):
        load_buffer(bad, capacity=30)


@pytest.mark.parametrize("row, slot", [(5, 30.0), (5, -2.0), (5, 0.5), (5, float("nan")), (9, -1.0)])
def test_buffer_slot_out_of_range_rejected(tmp_path, row, slot):
    # Every one of the 40 transitions kept a tail slot; row 9 is the newest.
    path, _ = saved_buffer(tmp_path, capacity=30, n=40)
    bad = rewrite_checkpoint(path, tmp_path / "bad.ckpt",
                             lambda arrays, meta: arrays["buffer.slot"].__setitem__(row, slot))
    with pytest.raises(ValueError, match=f"^{re.escape(str(bad))}: buffer.slot: .*30 rows of buffer.tail,"):
        load_buffer(bad, capacity=30)


class FiveArrayRing:
    """The replay layout that stored ``obs`` and ``next_obs`` in every row:
    the reference whose batches ``ReplayBuffer``'s must equal byte for byte."""

    def __init__(self, capacity, obs_dim, action_dim):
        self.capacity, self.size, self.cursor = capacity, 0, 0
        self.arrays = [np.zeros((capacity, obs_dim)), np.zeros((capacity, action_dim)),
                       np.zeros(capacity), np.zeros((capacity, obs_dim)), np.zeros(capacity)]

    def add(self, transition):
        for array, value in zip(self.arrays, transition):
            array[self.cursor] = value
        self.cursor = (self.cursor + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, rng, batch_size):
        idx = rng.integers(0, self.size, size=batch_size)
        return Batch(*(array[idx] for array in self.arrays))


def nan_with_payload(payload):
    return np.array([0x7FF8_0000_0000_0000 | payload], dtype=np.uint64).view(np.float64)[0]


def episode_stream(rng, episodes, length, obs_dim=4, action_dim=2):
    """(transition, is last of its episode) for ``episodes`` episodes of
    ``length`` steps, each state the previous step's next state.  Element 0
    of every observation is +0.0 or -0.0 and element 1 a NaN with some
    payload.  An episode starts from a fresh state, from the last episode's
    final state bit for bit, or from that state with the sign of its zero or
    the payload of its NaN changed, which must not count as the same state."""

    def fresh():
        obs = rng.standard_normal(obs_dim)
        obs[0] = rng.choice([0.0, -0.0])
        obs[1] = nan_with_payload(int(rng.integers(1, 4)))
        return obs

    final = None
    for _ in range(episodes):
        start = 0 if final is None else int(rng.integers(4))
        state = fresh() if start == 0 else final.copy()
        if start == 2:
            state[0] = -state[0]
        elif start == 3:
            state[1] = nan_with_payload(4)
        for t in range(length):
            next_state = fresh()
            yield Transition(state, rng.uniform(-1.0, 1.0, action_dim), float(rng.standard_normal()),
                             next_state, float(t == length - 1)), t == length - 1
            state = next_state
        final = state


@pytest.mark.parametrize("capacity", range(1, 8))
def test_buffer_batches_equal_five_array_reference(capacity):
    wraps_at_episode_end = 0
    for length in (1, 2, 3):
        for seed in range(50):
            rng = np.random.default_rng((capacity, length, seed))
            buf, ref = ReplayBuffer(capacity, 4, 2), FiveArrayRing(capacity, 4, 2)
            for transition, last in episode_stream(rng, 12, length):
                buf.add(transition)
                ref.add(transition)
                wraps_at_episode_end += last and buf._cursor == 0
                draw = int(rng.integers(1 << 32))
                got = buf.sample(np.random.default_rng(draw), 8)
                want = ref.sample(np.random.default_rng(draw), 8)
                for name, x, y in zip(Batch._fields, got, want):
                    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
                        (capacity, length, seed, name)
    assert wraps_at_episode_end > 0


def test_buffer_tail_holds_one_row_per_episode():
    episodes, length = 5, small_env_config().episode_length
    trainer = Trainer(SoftCaptureEnv(small_env_config()),
                      small_train_config(episodes=episodes, warmup_steps=10_000))
    list(trainer.run())
    buf = trainer.buffer
    assert len(buf) == episodes * length
    # Within an episode each state continues the one before; only each
    # episode's last transition keeps its next state in the tail.
    assert list(np.flatnonzero(buf._slot[: len(buf)] >= 0)) == [length * (k + 1) - 1 for k in range(episodes)]
    assert buf._tail_size <= episodes + 1
    assert trainer.checkpoint_table()["buffer.tail"].shape == (buf._tail_size, buf.obs_dim)


def test_small_buffer_resume_metrics_byte_identical(tmp_path):
    # A 50-row buffer under 40-step episodes wraps before the checkpoint.
    def config(out, episodes, checkpoint=None):
        overrides = {"seed": 2, "out_dir": str(out), "episodes": episodes, "checkpoint_every": 100,
                     "env": {"episode_length": 40, "success_streak_length": 20},
                     "train": {"batch_size": 32, "warmup_steps": 60, "buffer_capacity": 50}}
        if checkpoint is not None:
            overrides["checkpoint"] = str(checkpoint)
        return harness.load_config("train", None, overrides)

    assert harness.run_train(config(tmp_path / "straight", 5)) == 0
    assert harness.run_train(config(tmp_path / "resumed", 3)) == 0
    middle = tmp_path / "resumed" / "checkpoint_final.ckpt"
    meta, shapes = neural.read_header(middle)
    assert (shapes["buffer.obs"][0], meta["buffer_cursor"], shapes["buffer.tail"][0]) == (50, 20, 3)
    assert harness.run_train(config(tmp_path / "resumed", 5, middle)) == 0
    assert (tmp_path / "straight" / "metrics.csv").read_bytes() == (
        tmp_path / "resumed" / "metrics.csv").read_bytes()


def test_load_policy_reads_only_meta_and_policy(tmp_path):
    env = SoftCaptureEnv(small_env_config())
    trainer = Trainer(env, small_train_config(episodes=0, buffer_capacity=10_000))
    for i in range(10_000):
        trainer.buffer.add(fill_transition(i, env.observation_dim, env.action_dim))
    path = tmp_path / "big.ckpt"
    trainer.save(path)
    policy_bytes = trainer.agent.policy.params.flat.nbytes
    assert path.stat().st_size > 10 * policy_bytes
    tracemalloc.start()
    try:
        policy = Trainer.load_policy(path, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * policy_bytes
    assert np.array_equal(policy.params.flat, trainer.agent.policy.params.flat)


# ---------------------------------------------------------------- training loop
def test_trainer_warmup_contract():
    env = SoftCaptureEnv(small_env_config())
    config = small_train_config(episodes=1, warmup_steps=10_000)
    trainer = Trainer(env, config)
    metrics = list(trainer.run())[0]
    assert metrics.updates == 0
    assert metrics.buffer_size == env.config.episode_length
    assert math.isnan(metrics.critic1_loss)


def test_trainer_deterministic_metrics():
    def run():
        env = SoftCaptureEnv(small_env_config())
        return list(Trainer(env, small_train_config(episodes=3, seed=5)).run())

    m1, m2 = run(), run()
    # Compare through the CSV row form, where NaN placeholders for the
    # pre-update episodes compare equal.
    assert [table_row(astuple(m)) for m in m1] == [table_row(astuple(m)) for m in m2]
    assert m1[-1].updates > 0  # learning actually happened at this scale


def test_trainer_actions_feasible_and_buffer_matches():
    env = SoftCaptureEnv(small_env_config())
    trainer = Trainer(env, small_train_config(episodes=2))
    list(trainer.run())
    n = len(trainer.buffer)
    actions = trainer.buffer._action[:n]
    assert np.all(actions >= -1.0) and np.all(actions <= 1.0)


def test_trainer_checkpoint_round_trip(tmp_path):
    env = SoftCaptureEnv(small_env_config())
    trainer = Trainer(env, small_train_config(episodes=2, seed=9))
    list(trainer.run())
    path = tmp_path / "state.ckpt"
    trainer.save(path)

    env2 = SoftCaptureEnv(small_env_config())
    restored = Trainer.load(path, env2, small_train_config(episodes=2, seed=9))
    assert restored.episode == trainer.episode
    assert restored.env_steps == trainer.env_steps
    for a, b in zip(restored.agent.policy.params.weights, trainer.agent.policy.params.weights):
        assert np.array_equal(a, b)
    assert restored.agent.temperature.log_alpha.tobytes() == trainer.agent.temperature.log_alpha.tobytes()
    assert restored.rng_learn.bit_generator.state == trainer.rng_learn.bit_generator.state
    # Every optimizer has stepped once per update, so each takes its step
    # count from ``updates``.
    assert trainer.updates > 0
    for name in sac._OPTIMIZERS:
        assert getattr(restored.agent, f"opt_{name}").t == getattr(trainer.agent, f"opt_{name}").t
        assert getattr(restored.agent, f"opt_{name}").t == trainer.updates


def test_trainer_load_takes_target_entropy_from_config(tmp_path):
    env = SoftCaptureEnv(small_env_config())
    path = tmp_path / "state.ckpt"
    Trainer(env, small_train_config(episodes=1, seed=9)).save(path)
    restored = Trainer.load(path, env, small_train_config(episodes=2, seed=9))
    assert restored.agent.temperature.target_entropy == -float(env.action_dim)
    restored = Trainer.load(path, env, small_train_config(episodes=2, seed=9, target_entropy=-1.5))
    assert restored.agent.temperature.target_entropy == -1.5


def test_trainer_load_rejects_other_seed(tmp_path):
    env = SoftCaptureEnv(small_env_config())
    path = tmp_path / "seed0.ckpt"
    Trainer(env, small_train_config(episodes=1, seed=0)).save(path)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}: .*seed 0.*seed 7"):
        Trainer.load(path, SoftCaptureEnv(small_env_config()), small_train_config(episodes=2, seed=7))


def test_trainer_resume_reproduces_stream(tmp_path):
    def fresh_env():
        return SoftCaptureEnv(small_env_config())

    config4 = small_train_config(episodes=4, seed=3)
    straight = list(Trainer(fresh_env(), config4).run())

    config2 = small_train_config(episodes=2, seed=3)
    first = Trainer(fresh_env(), config2)
    part1 = list(first.run())
    path = tmp_path / "mid.ckpt"
    first.save(path)
    resumed = Trainer.load(path, fresh_env(), config4)
    part2 = list(resumed.run())
    assert [table_row(astuple(m)) for m in part1 + part2] == [table_row(astuple(m)) for m in straight]


def test_trainer_halts_on_non_finite(monkeypatch):
    env = SoftCaptureEnv(small_env_config())
    trainer = Trainer(env, small_train_config(episodes=1, warmup_steps=0))

    def poisoned_update(batch, rng):
        raise FloatingPointError("poisoned")

    monkeypatch.setattr(trainer.agent, "update", poisoned_update)
    with pytest.raises(RuntimeError, match="env step"):
        list(trainer.run())


def test_load_policy_reads_meta(tmp_path):
    env = SoftCaptureEnv(small_env_config(tactile_enabled=True))
    trainer = Trainer(env, small_train_config(episodes=1))
    list(trainer.run())
    path = tmp_path / "state.ckpt"
    trainer.save(path)
    policy = Trainer.load_policy(path, env)
    assert policy.action_dim == 6
    assert np.array_equal(policy.params.flat, trainer.agent.policy.params.flat)
    obs = np.zeros(40)
    a = deterministic_action(policy, obs)
    assert a.shape == (6,)
    # The widths of buffer.obs and buffer.action are checked against the environment.
    with pytest.raises(ValueError, match=r"\(40, 6\) in buffer.obs/buffer.action.*"
                                         r"\(39, 6\) with tactile=False"):
        Trainer.load_policy(path, SoftCaptureEnv(small_env_config()))


def test_policy_snapshot_holds_the_meta_and_the_policy(tmp_path):
    env = SoftCaptureEnv(small_env_config(tactile_enabled=True))
    trainer = Trainer(env, small_train_config(episodes=1))
    list(trainer.run())
    full, snapshot = tmp_path / "state.ckpt", tmp_path / "policy.ckpt"
    trainer.save(full)
    trainer.save_policy(snapshot)
    (meta, shapes), (full_meta, full_shapes) = neural.read_header(snapshot), neural.read_header(full)
    assert meta == full_meta
    # The zero-row buffer entries carry the widths at no data bytes.
    assert shapes == {"policy": full_shapes["policy"], "buffer.obs": (0, 40),
                      "buffer.action": (0, 6), "buffer.tail": (0, 40)}
    policy = Trainer.load_policy(snapshot, env)
    assert np.array_equal(policy.params.flat, trainer.agent.policy.params.flat)
    with pytest.raises(ValueError, match=r"\(40, 6\) in buffer.obs/buffer.action.*"
                                         r"\(39, 6\) with tactile=False"):
        Trainer.load_policy(snapshot, SoftCaptureEnv(small_env_config()))
    with pytest.raises(ValueError, match=f"^{re.escape(str(snapshot))}: a policy snapshot holds no state"):
        Trainer.load(snapshot, env, trainer.config)


# ---------------------------------------------------------------- checkpoint table
def trained_checkpoint(tmp_path):
    env = SoftCaptureEnv(small_env_config())
    trainer = Trainer(env, small_train_config(episodes=2, seed=4))
    list(trainer.run())
    path = tmp_path / "trained.ckpt"
    trainer.save(path)
    return path, trainer


def test_checkpoint_load_then_save_is_byte_identical(tmp_path):
    path, trainer = trained_checkpoint(tmp_path)
    assert trainer.updates > 0 and len(trainer.buffer) > 0
    again = tmp_path / "again.ckpt"
    Trainer.load(path, SoftCaptureEnv(small_env_config()), trainer.config).save(again)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_entries_are_the_trainer_table(tmp_path):
    path, trainer = trained_checkpoint(tmp_path)
    meta, arrays = neural.load_arrays(path)
    table = trainer.checkpoint_table()
    assert meta["version"] == sac.CHECKPOINT_VERSION
    assert sorted(arrays) == sorted(table)
    for name, live in table.items():
        assert np.array_equal(arrays[name], live), name
    assert table["policy"] is trainer.agent.policy.params.flat
    assert table["adam.alpha.m"] is trainer.agent.opt_alpha.m and table["adam.alpha.v"].shape == (1,)
    assert table["log_alpha"] is trainer.agent.temperature.log_alpha


def test_checkpoint_meta_holds_only_what_load_reads(tmp_path):
    # A stored key that ``Trainer.load`` neither reads nor checks would be
    # a second copy of some fact, free to disagree with the first.
    path, _ = trained_checkpoint(tmp_path)
    meta, _ = neural.read_header(path)
    assert sorted(meta) == sorted([*sac._META_TYPES, "version"])


def rewrite_checkpoint(path, out, change):
    meta, arrays = neural.load_arrays(path)
    change(arrays, meta)
    neural.save_arrays(out, arrays, meta)
    return out


# Each case: how the file is changed, the error after its path, and whether
# the policy reader, which reads only the meta and the policy, rejects it too.
@pytest.mark.parametrize("change, message, policy_reader_rejects", [
    *((lambda arrays, meta, v=v: meta.update(version=v),
       f"checkpoint format v{v}, this program reads v{sac.CHECKPOINT_VERSION}", True)
      for v in range(1, sac.CHECKPOINT_VERSION)),
    (lambda arrays, meta: arrays.pop("policy"), "policy: entry missing", True),
    (lambda arrays, meta: arrays.pop("adam.q2.v"), "adam.q2.v: entry missing", False),
    (lambda arrays, meta: arrays.pop("log_alpha"), "log_alpha: entry missing", False),
    (lambda arrays, meta: arrays.pop("buffer.obs"), "buffer.obs: entry missing", True),
    (lambda arrays, meta: arrays.update({"buffer.action": arrays["buffer.action"].ravel()}),
     r"buffer.action: shape \(\d+,\), expected \(rows, width\)", True),
    (lambda arrays, meta: arrays.update(target_q1=arrays["target_q1"][:-1]),
     r"target_q1: shape \(\d+,\), expected \(\d+,\)", False),
    (lambda arrays, meta: arrays.update({"buffer.done": arrays["buffer.done"][:-1]}),
     r"buffer.done: shape \(79,\), expected \(80,\)", False),
    (lambda arrays, meta: meta.update(rng_act={}), "meta: rng_act: state must be for a PCG64 RNG$", False),
    (lambda arrays, meta: meta["rng_learn"].update(bit_generator="MT19937"),
     "meta: rng_learn: state must be for a PCG64 RNG$", False),
])
def test_checkpoint_rejects_other_format_and_bad_entries(tmp_path, change, message,
                                                         policy_reader_rejects):
    path, trainer = trained_checkpoint(tmp_path)
    bad = rewrite_checkpoint(path, tmp_path / "bad.ckpt", change)
    env = SoftCaptureEnv(small_env_config())
    match = f"^{re.escape(str(bad))}: {message}"
    with pytest.raises(ValueError, match=match):
        Trainer.load(bad, env, trainer.config)
    if policy_reader_rejects:
        with pytest.raises(ValueError, match=match):
            Trainer.load_policy(bad, env)
    else:
        Trainer.load_policy(bad, env)


# Every meta key ``Trainer.load`` reads.
META_KEYS = ["seed", "buffer_capacity", "buffer_cursor", "episode", "env_steps", "updates",
             "rng_act", "rng_learn"]


@pytest.mark.parametrize("key", META_KEYS)
def test_checkpoint_refuses_meta_without_a_key(tmp_path, key):
    path, trainer = trained_checkpoint(tmp_path)
    bad = rewrite_checkpoint(path, tmp_path / "bad.ckpt", lambda arrays, meta: meta.pop(key))
    env = SoftCaptureEnv(small_env_config())
    match = f"^{re.escape(str(bad))}: meta: {re.escape(key)} missing$"
    with pytest.raises(ValueError, match=match):
        Trainer.load(bad, env, trainer.config)
    with pytest.raises(ValueError, match=match):
        Trainer.load_policy(bad, env)


@pytest.mark.parametrize("key, value, kind", [
    ("episode", "2", "integer"), ("updates", 2.0, "integer"), ("buffer_cursor", True, "integer"),
    ("seed", None, "integer"), ("rng_learn", "pcg64", "object"), ("rng_act", [1, 2], "object"),
    ("episode", -3, ">= 0"), ("env_steps", -5, ">= 0"), ("updates", -1, ">= 0"),
])
def test_checkpoint_refuses_meta_key_of_another_type(tmp_path, key, value, kind):
    path, trainer = trained_checkpoint(tmp_path)
    bad = rewrite_checkpoint(path, tmp_path / "bad.ckpt", lambda arrays, meta: meta.update({key: value}))
    match = f"^{re.escape(str(bad))}: meta: {re.escape(key)} must be {kind}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=match):
        Trainer.load(bad, SoftCaptureEnv(small_env_config()), trainer.config)


def test_checkpoint_of_the_old_container_is_refused(tmp_path):
    # Format v3 and older wrote container v1: "SCPK" | u32 1 | u32 entry
    # count, then per entry u16 name length | name | u8 ndim | u32 dims |
    # f64 data.
    path = tmp_path / "v3.ckpt"
    path.write_bytes(b"SCPK" + struct.pack("<IIH", 1, 1, 4) + b"meta" + struct.pack("<BId", 1, 1, 0.0))
    env = SoftCaptureEnv(small_env_config())
    match = f"^{re.escape(str(path))}: checkpoint container v1, this program reads v2"
    with pytest.raises(ValueError, match=match):
        Trainer.load(path, env, small_train_config(episodes=1))
    with pytest.raises(ValueError, match=match):
        Trainer.load_policy(path, env)
