"""Acceptance suite: one test per gate criterion, tolerances pinned inline.

Each test ends by printing a single pass line; a failed assertion is the
fail line.  Criterion 10 exercises the matched-seed comparison mode at
smoke scale (the full-scale run stays an optional, documented mode).
"""

import csv
import math
from dataclasses import replace

import numpy as np

from softcap import dynamics, harness, neural, sac, spatial
from softcap.dynamics import box_inertia_diag, resolve_contacts, step_free_body
from softcap.env import SoftCaptureEnv, compute_reward
from softcap.spatial import Obb, Pose, contains_point

from conftest import (
    diagnostic_env_config,
    diagnostic_train_config,
    hull_contains,
    random_quat,
    small_env_config,
)

FINGER_REGION = dynamics.build_open_gripper().finger_region


def _done(n, text):
    print(f"criterion {n}: PASS - {text}")


# ----------------------------------------------------------------------
def test_criterion_01_reward_bounds_hold_everywhere():
    rng = np.random.default_rng(0)
    n = 100_000
    g_pos = rng.uniform(-2, 2, (n, 3))
    t_pos = rng.uniform(-2, 2, (n, 3))
    forces = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 100.0, n))
    half_extents = rng.uniform(0.01, 0.3, (n, 3))
    for i in range(n):
        reward, terms = compute_reward(
            Pose(g_pos[i], random_quat(rng)),
            FINGER_REGION,
            Pose(t_pos[i], random_quat(rng)),
            half_extents[i],
            float(forces[i]),
        )
        assert -1.0 <= reward <= 3.0
        assert 0.0 < terms.r_dist <= 1.0
        assert 0.0 < terms.r_align <= 1.0
        assert terms.r_surr in (0.0, 1.0)
        assert terms.r_contact in (-1.0, 0.0)
    _done(1, f"{n} random world states stayed in [-1, 3] with terms in range")


# ----------------------------------------------------------------------
def test_criterion_02_maximum_reward_configuration():
    # Coincident, aligned poses with sub-1e-3 errors; a slender box whose
    # corner reaches into the finger enclosure; no contact force.
    gripper_pose = Pose([0.0, 0.0, 0.0])
    target_pose = Pose(
        [5e-4, -4e-4, 3e-4], spatial.euler_xyz_to_quat([4e-4, -3e-4, 5e-4])
    )
    half_extents = (0.12, 0.02, 0.02)  # +x corner sits inside the fingers
    corner = Obb(target_pose, half_extents).corners()
    assert any(contains_point(FINGER_REGION, gripper_pose, c, 0.005) for c in corner)
    reward, terms = compute_reward(
        gripper_pose, FINGER_REGION, target_pose, half_extents, 0.0, margin=0.005
    )
    assert terms.r_surr == 1.0 and terms.r_contact == 0.0
    assert reward > 2.99
    _done(2, f"hand-built enclosed state scored {reward:.6f} > 2.99")


# ----------------------------------------------------------------------
def test_criterion_03_torque_free_conservation():
    rng = np.random.default_rng(42)
    dt = 1.0 / 240.0
    for trial in range(10):
        body = dynamics.RigidBody(
            pose=Pose(rng.uniform(-1, 1, 3), random_quat(rng)),
            lin_vel=rng.uniform(-0.1, 0.1, 3),
            ang_vel=rng.uniform(-1.5, 1.5, 3),
            mass=rng.uniform(0.5, 2.0),
            inertia_diag=rng.uniform(0.2, 3.0, 3),
        )
        l0 = body.angular_momentum_world()
        e0 = body.rotational_energy()
        p0 = body.mass * body.lin_vel
        for _ in range(500):
            body = step_free_body(body, dt)
        assert np.linalg.norm(body.angular_momentum_world() - l0) / np.linalg.norm(l0) < 1e-4
        assert abs(body.rotational_energy() - e0) / abs(e0) < 1e-4
        assert np.array_equal(body.mass * body.lin_vel, p0)
    _done(3, "10 random 500-step rollouts kept |L| and E within 1e-4, momentum exact")


# ----------------------------------------------------------------------
def test_criterion_04_contact_impulse_closed_form():
    dt = 1.0 / 240.0
    target = dynamics.RigidBody(
        pose=Pose(), lin_vel=np.zeros(3), ang_vel=np.zeros(3),
        mass=1.0, inertia_diag=box_inertia_diag(1.0, [0.1] * 3),
    )
    box = Obb(target.pose, [0.1, 0.1, 0.1])
    g = dynamics.GripperBody(
        pose=Pose([0.145, 0.0, 0.0]),
        sphere_centers=np.zeros((1, 3)), sphere_radii=np.array([0.05]),
    )
    contacts = dynamics.detect_contacts(g, box)
    assert len(contacts) == 1
    gripper_vel = lambda p: np.array([-0.1, 0.0, 0.0])

    # Pure impulse, bias disabled: j = m * dv within 1%.
    out, result = resolve_contacts(target, box, contacts, gripper_vel, dt, beta=0.0)
    expected = 1.0 * 0.1
    assert abs(result.total_normal_impulse - expected) / expected < 0.01
    n = contacts[0].normal
    v_rel = float((out.lin_vel - gripper_vel(contacts[0].point)) @ n)
    assert v_rel >= -1e-6

    # Bias term tested separately at the documented beta.
    _, biased = resolve_contacts(target, box, contacts, gripper_vel, dt, beta=0.2)
    expected_biased = 1.0 * (0.1 + 0.2 * contacts[0].depth / dt)
    assert abs(biased.total_normal_impulse - expected_biased) / expected_biased < 0.01
    _done(4, "central impact matched j = m dv within 1%, separation non-negative")


# ----------------------------------------------------------------------
def test_criterion_05_containment_matches_tessellation_oracle():
    rng = np.random.default_rng(7)
    generators = dynamics.open_gripper_region_points()
    checked = 0
    while checked < 1000:
        region_pose = Pose(rng.uniform(-0.5, 0.5, 3), random_quat(rng))
        # Mix points clustered around the enclosure with far ones.
        if rng.random() < 0.7:
            local = generators.mean(axis=0) + rng.uniform(-0.12, 0.12, 3)
        else:
            local = rng.uniform(-0.3, 0.3, 3)
        margins = FINGER_REGION.offsets - FINGER_REGION.normals @ local
        if np.min(np.abs(margins)) < 1e-6:
            continue  # inside the excluded face band
        world = region_pose.transform_point(local)
        got = contains_point(FINGER_REGION, region_pose, world)
        expected = hull_contains(generators, local)
        assert got == expected
        checked += 1
    _done(5, "1000 containment queries agreed with the hull tessellation oracle")


# ----------------------------------------------------------------------
def _fd_check(loss_fn, params, analytic, rtol=1e-4, floor=1e-8, h=1e-5):
    for store, astore in ((params.weights, analytic.weights), (params.biases, analytic.biases)):
        for arr, grad in zip(store, astore):
            flat, gflat = arr.ravel(), grad.ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss_fn()
                flat[i] = orig - h
                down = loss_fn()
                flat[i] = orig
                numeric = (up - down) / (2.0 * h)
                assert abs(gflat[i] - numeric) <= rtol * max(abs(numeric), floor) + floor


def test_criterion_06_gradients_match_finite_differences():
    rng = np.random.default_rng(3)

    # (a) Random 2-layer nets.
    params = neural.DenseParams(
        [rng.standard_normal((16, 6)), rng.standard_normal((4, 16))],
        [rng.standard_normal(16), rng.standard_normal(4)],
    )
    x = rng.standard_normal((4, 6))
    target = rng.standard_normal((4, 4))

    def net_loss():
        out, _ = neural.forward(params, x)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = neural.forward(params, x)
    grads, _ = neural.backward(params, cache, out - target)
    _fd_check(net_loss, params, grads)

    # Shared toy agent pieces for the SAC losses.
    obs_dim, act_dim, batch_n = 5, 2, 4
    policy = sac.PolicyNet(neural.init_params(11, [obs_dim, 16, 16, 2 * act_dim]), act_dim)
    q_sizes = [obs_dim + act_dim, 16, 16, 1]
    critics = sac.TwinCritics(
        q1=neural.init_params(12, q_sizes), q2=neural.init_params(13, q_sizes),
        target_q1=neural.init_params(12, q_sizes), target_q2=neural.init_params(13, q_sizes),
    )
    obs = rng.standard_normal((batch_n, obs_dim))
    actions = np.clip(rng.standard_normal((batch_n, act_dim)), -0.9, 0.9)
    noise = rng.standard_normal((batch_n, act_dim))

    # (b) Squashed-Gaussian log-prob via frozen-noise reparameterization.
    def log_prob_loss():
        _, log_prob, _ = sac._squash(policy, obs, noise)
        return float(np.mean(log_prob))

    zero_q = neural.DenseParams(
        [np.zeros((o, i)) for i, o in zip(q_sizes[:-1], q_sizes[1:])],
        [np.zeros(o) for o in q_sizes[1:]],
    )
    zero_critics = sac.TwinCritics(zero_q, zero_q.clone(), zero_q.clone(), zero_q.clone())
    _, logp_grads, _ = sac.policy_loss_and_grads(policy, zero_critics, 1.0, obs, noise)
    _fd_check(log_prob_loss, policy.params, logp_grads)

    # (c) Critic loss on the frozen batch.
    y = rng.standard_normal(batch_n)

    def critic_loss():
        return sac.critic_loss_and_grads(critics.q1.clone(), obs, actions, y)[0]

    _, critic_grads = sac.critic_loss_and_grads(critics.q1, obs, actions, y)
    _fd_check(critic_loss, critics.q1, critic_grads)

    # (d) Policy loss with live critics and temperature.
    alpha = 0.37

    def policy_loss():
        loss, _, _ = sac.policy_loss_and_grads(policy, critics, alpha, obs, noise)
        return loss

    _, policy_grads, _ = sac.policy_loss_and_grads(policy, critics, alpha, obs, noise)
    _fd_check(policy_loss, policy.params, policy_grads)
    _done(6, "all analytic gradients within 1e-4 relative of central differences")


# ----------------------------------------------------------------------
def test_criterion_07_sac_mechanics_suite():
    rng = np.random.default_rng(5)

    # Twin-min bootstrap, both orderings.
    obs_dim, act_dim = 5, 2
    policy = sac.PolicyNet(neural.init_params(0, [obs_dim, 16, 16, 2 * act_dim]), act_dim)
    lo = neural.DenseParams([np.zeros((4, obs_dim + act_dim)), np.zeros((1, 4))],
                            [np.zeros(4), np.array([1.0])])
    hi = lo.clone()
    hi.biases[-1][0] = 5.0
    batch = sac.Batch(
        obs=rng.standard_normal((8, obs_dim)), action=np.zeros((8, act_dim)),
        reward=np.zeros(8), next_obs=rng.standard_normal((8, obs_dim)), done=np.zeros(8),
    )
    for q1t, q2t in ((lo, hi), (hi, lo)):
        critics = sac.TwinCritics(lo.clone(), hi.clone(), q1t.clone(), q2t.clone())
        y = sac.critic_target(batch, critics, policy, 0.0, 0.5, np.random.default_rng(0))
        assert np.allclose(y, 0.5 * 1.0)

    # Alpha positivity under violent gradients.
    opt = neural.AdamState.zeros(1)
    log_alpha = np.zeros(1)
    for grad in (1e8, -1e8, 37.0, -0.5, 1e8):
        neural.adam_step(log_alpha, np.array([grad]), opt, lr=1.0)
        assert math.exp(log_alpha[0]) > 0.0

    # Soft-update geometric decay within 1e-9.
    online = neural.init_params(1, [3, 8, 2])
    target = neural.init_params(2, [3, 8, 2])
    tau, steps = 0.005, 60
    gap0 = np.concatenate([(t - o).ravel() for t, o in zip(target.weights, online.weights)])
    for _ in range(steps):
        target = sac.soft_update(online, target, tau)
    gap = np.concatenate([(t - o).ravel() for t, o in zip(target.weights, online.weights)])
    assert np.allclose(gap, (1.0 - tau) ** steps * gap0, atol=1e-9)

    # Replay uniformity within 1% over a 10-slot buffer.
    buf = sac.ReplayBuffer(capacity=16, obs_dim=1, action_dim=1)
    for i in range(10):
        buf.add(sac.Transition(np.array([float(i)]), np.zeros(1), float(i),
                               np.zeros(1), 0.0))
    draws = buf.sample(np.random.default_rng(0), 1_000_000)
    freq = np.bincount(draws.reward.astype(int), minlength=10) / 1_000_000
    assert np.all(np.abs(freq - 0.1) < 0.001)

    # Log-std clamp respected through noisy updates.
    config = sac.TrainConfig(episodes=0, batch_size=16, learning_rate=1e-2)
    agent = sac.SacAgent.create(9, obs_dim, act_dim, config)
    obs = rng.standard_normal((16, obs_dim))
    training_batch = sac.Batch(obs=obs, action=np.zeros((16, act_dim)),
                               reward=np.ones(16), next_obs=obs, done=np.zeros(16))
    for _ in range(100):
        agent.update(training_batch, rng)
    _, log_std, _, _ = sac._policy_heads(agent.policy, rng.standard_normal((64, obs_dim)))
    assert np.all(log_std >= sac.LOG_STD_MIN) and np.all(log_std <= sac.LOG_STD_MAX)
    assert agent.temperature.alpha > 0.0
    _done(7, "twin-min, alpha > 0, soft-update decay, replay uniformity, clamp all hold")


# ----------------------------------------------------------------------
def test_criterion_08_determinism(tmp_path):
    # Two 20-episode runs, identical seeds, byte-identical metrics files.
    def run_dir(name):
        data = {
            "mode": "train", "seed": 13, "out_dir": str(tmp_path / name),
            "episodes": 20, "eval_episodes": 0, "checkpoint_every": 0,
            "env": {"episode_length": 40, "success_streak_length": 20},
            "train": {"batch_size": 32, "warmup_steps": 120},
        }
        cfg = harness._build_dataclass(harness.RunConfig, data)
        cfg.train = replace(cfg.train, seed=cfg.seed, episodes=cfg.episodes)
        assert harness.run_train(cfg) == 0
        return (tmp_path / name / "metrics.csv").read_bytes()

    assert run_dir("one") == run_dir("two")

    # Matched seeds: tactile and non-tactile envs differ only in entry 39.
    base = small_env_config()
    env_plain = SoftCaptureEnv(replace(base, tactile_enabled=False))
    env_tactile = SoftCaptureEnv(replace(base, tactile_enabled=True))
    actions = np.random.default_rng(1).uniform(-1, 1, (40, 6))
    obs_p = env_plain.reset(seed=77)
    obs_t = env_tactile.reset(seed=77)
    assert np.array_equal(obs_p, obs_t[:39])
    for a in actions:
        rp, rt = env_plain.step(a), env_tactile.step(a)
        assert np.array_equal(rp.obs, rt.obs[:39])
        assert rp.reward == rt.reward
    _done(8, "byte-identical metrics; tactile arm differs only in observation entry 39")


# ----------------------------------------------------------------------
def test_criterion_09_learning_signal_at_desk_scale():
    env = SoftCaptureEnv(diagnostic_env_config())
    returns = [m.episode_return for m in sac.Trainer(env, diagnostic_train_config(200)).run()]
    first = float(np.mean(returns[:10]))
    last = float(np.mean(returns[-10:]))
    improvement = (last - first) / abs(first)
    assert improvement >= 0.50, f"improvement {improvement:.2%} (first {first:.1f}, last {last:.1f})"
    _done(9, f"diagnostic run improved {improvement:.0%} (first10 {first:.1f}, last10 {last:.1f})")


# ----------------------------------------------------------------------
def test_criterion_10_matched_seed_comparison_mode(tmp_path):
    # The full-scale ablation (tens of millions of environment steps) is
    # out of desk scope by design; this checks the substitute: the
    # comparison mode runs both arms on matched seeds and reports both
    # success rates without asserting an ordering.
    data = {
        "mode": "compare", "seed": 4, "out_dir": str(tmp_path / "cmp"),
        "episodes": 2, "eval_episodes": 2, "checkpoint_every": 0,
        "env": {"episode_length": 40, "success_streak_length": 20},
        "train": {"batch_size": 32, "warmup_steps": 60},
        "compare": {"train_episodes": 2},
    }
    cfg = harness._build_dataclass(harness.RunConfig, data)
    cfg.train = replace(cfg.train, seed=cfg.seed, episodes=cfg.episodes)
    assert harness.run_compare(cfg) == 0
    with open(tmp_path / "cmp" / "comparison.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["arm"] for r in rows] == ["a", "b"]
    assert [r["tactile"] for r in rows] == ["1", "0"]
    for r in rows:
        assert 0.0 <= float(r["success_rate"]) <= 1.0
    _done(10, "matched-seed comparison reports both arms; full-scale run documented as optional")
