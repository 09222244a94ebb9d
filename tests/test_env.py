import collections
import csv
import math
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from softcap import dynamics, spatial
from softcap.dynamics import RigidBody
from softcap.env import (
    SUCCESS_REWARD_THRESHOLD,
    EnvConfig,
    RandomizationSpec,
    SoftCaptureEnv,
    StepResult,
    TraceRecord,
    compute_reward,
    is_success,
    longest_streak,
    read_table,
    write_table,
    write_trace_csv,
)
from softcap.spatial import Obb, Pose

from conftest import random_quat


def quiet_randomization(**overrides) -> RandomizationSpec:
    """All ranges pinned, no observation noise unless overridden."""
    defaults = dict(
        target_position_low=(0.6, 0.0, 0.0),
        target_position_high=(0.6, 0.0, 0.0),
        gripper_orientation_low=(0.0, 0.0, 0.0),
        gripper_orientation_high=(0.0, 0.0, 0.0),
        target_lin_vel_low=(0.0, 0.0, 0.0),
        target_lin_vel_high=(0.0, 0.0, 0.0),
        target_ang_vel_low=(0.0, 0.0, 0.0),
        target_ang_vel_high=(0.0, 0.0, 0.0),
        target_mass_range=(1.0, 1.0),
        obs_position_noise=0.0,
        obs_velocity_noise=0.0,
    )
    defaults.update(overrides)
    return RandomizationSpec(**defaults)


def quiet_config(**overrides) -> EnvConfig:
    defaults = dict(
        episode_length=50,
        success_streak_length=20,
        action_noise_fraction=0.0,
        randomization=quiet_randomization(),
    )
    defaults.update(overrides)
    return EnvConfig(**defaults)


FINGER_REGION = dynamics.build_open_gripper().finger_region


# ---------------------------------------------------------------- reward
def test_reward_coincident_aligned_no_surround_no_contact():
    reward, terms = compute_reward(Pose(), FINGER_REGION, Pose(), (0.5, 0.5, 0.5), 0.0)
    # Both tanh terms vanish; the big box's corners sit outside the fingers.
    assert reward == 2.0
    assert terms.r_dist == 1.0 and terms.r_align == 1.0
    assert terms.r_surr == 0.0 and terms.r_contact == 0.0


def test_reward_one_meter_distance():
    reward, terms = compute_reward(
        Pose([1.0, 0.0, 0.0]), FINGER_REGION, Pose(), (0.01, 0.01, 0.01), 0.0
    )
    assert abs(terms.r_dist - (1.0 - math.tanh(1.0))) < 1e-12
    assert abs(reward - (2.0 - math.tanh(1.0))) < 1e-12


def test_reward_contact_penalty_is_exactly_one():
    args = (Pose([0.3, 0, 0]), FINGER_REGION, Pose(), (0.05, 0.05, 0.05))
    clean, terms_clean = compute_reward(*args, 0.0)
    hit, terms_hit = compute_reward(*args, 2.5)
    assert terms_hit.r_contact == -1.0 and terms_clean.r_contact == 0.0
    assert abs((clean - hit) - 1.0) < 1e-12


def test_reward_surround_with_contained_corner():
    # Slender box reaching into the finger region corner-first.
    target = Pose([0.12, 0.0, 0.0])
    reward, terms = compute_reward(
        Pose(), FINGER_REGION, target, (0.02, 0.015, 0.015), 0.0, margin=0.005
    )
    assert terms.r_surr == 1.0
    assert reward > 2.0


def test_reward_alignment_measures_misalignment():
    yawed = spatial.quat_from_axis_angle((0, 0, 1), 0.4)
    _, terms_id = compute_reward(Pose(), FINGER_REGION, Pose(), (0.5,) * 3, 0.0)
    _, terms_off = compute_reward(Pose(orientation=yawed), FINGER_REGION, Pose(), (0.5,) * 3, 0.0)
    assert terms_id.r_align == 1.0
    assert abs(terms_off.r_align - (1.0 - math.tanh(0.4))) < 1e-12
    # A target yawed the same way restores full alignment.
    _, terms_matched = compute_reward(
        Pose(orientation=yawed), FINGER_REGION, Pose(orientation=yawed), (0.5,) * 3, 0.0
    )
    assert abs(terms_matched.r_align - 1.0) < 1e-12


def test_reward_bounds_random_states(rng):
    for _ in range(2000):
        g_pose = Pose(rng.uniform(-2, 2, 3), random_quat(rng))
        t_pose = Pose(rng.uniform(-2, 2, 3), random_quat(rng))
        force = float(rng.choice([0.0, rng.uniform(0, 50)]))
        reward, terms = compute_reward(
            g_pose, FINGER_REGION, t_pose, rng.uniform(0.01, 0.3, 3), force
        )
        assert -1.0 <= reward <= 3.0
        assert 0.0 < terms.r_dist <= 1.0
        assert 0.0 < terms.r_align <= 1.0
        assert terms.r_surr in (0.0, 1.0)
        assert terms.r_contact in (-1.0, 0.0)
        assert reward == terms.r_dist + terms.r_align + terms.r_surr + terms.r_contact


def test_reward_monotone_in_errors():
    distances = np.sort(np.random.default_rng(0).uniform(0, 3, 50))
    rewards = [
        compute_reward(Pose([d, 0, 0]), FINGER_REGION, Pose(), (0.01,) * 3, 0.0)[1].r_dist
        for d in distances
    ]
    assert all(a > b for a, b in zip(rewards, rewards[1:]))
    angles = np.sort(np.random.default_rng(1).uniform(0, math.pi, 50))
    aligns = [
        compute_reward(
            Pose(orientation=spatial.quat_from_axis_angle((0, 0, 1), a)),
            FINGER_REGION, Pose(), (0.01,) * 3, 0.0,
        )[1].r_align
        for a in angles
    ]
    assert all(a > b for a, b in zip(aligns, aligns[1:]))


# ---------------------------------------------------------------- success metric
def test_success_scan_cases():
    assert not is_success([0.0] * 500, 2.0, 200)
    assert is_success([2.5] * 200 + [0.0] * 300, 2.0, 200)
    assert not is_success([2.5] * 199 + [1.9] + [2.5] * 199, 2.0, 200)
    assert longest_streak([3, 3, 1, 3], 2.0) == 2
    # Strictly above the threshold.
    assert not is_success([2.0] * 500, 2.0, 200)


def test_env_success_requires_complete_episode():
    env = SoftCaptureEnv(quiet_config())
    env.reset(seed=0)
    env.step(np.zeros(6))
    with pytest.raises(ValueError):
        env.is_success()


# ---------------------------------------------------------------- reset
def test_reset_same_seed_bit_identical():
    env = SoftCaptureEnv(EnvConfig())
    a = env.reset(seed=42)
    b = env.reset(seed=42)
    assert np.array_equal(a, b)


def test_reset_zero_width_ranges_hit_midpoint():
    env = SoftCaptureEnv(quiet_config())
    env.reset(seed=7)
    assert np.allclose(env.target.pose.position, [0.6, 0.0, 0.0])
    assert env.target.mass == 1.0
    assert np.allclose(env.target.lin_vel, 0.0)


def test_reset_sampling_statistics():
    env = SoftCaptureEnv(EnvConfig())
    rnd = env.config.randomization
    lows = np.asarray(rnd.target_position_low)
    highs = np.asarray(rnd.target_position_high)
    n = 10_000
    positions = np.empty((n, 3))
    masses = np.empty(n)
    for i in range(n):
        env.reset(seed=i)
        positions[i] = env.target.pose.position
        masses[i] = env.target.mass
    assert np.all(positions.min(axis=0) >= lows)
    assert np.all(positions.max(axis=0) <= highs)
    width = highs - lows
    se = width / math.sqrt(12.0 * n)
    mid = 0.5 * (lows + highs)
    assert np.all(np.abs(positions.mean(axis=0) - mid) < 3.0 * se)
    m_lo, m_hi = rnd.target_mass_range
    assert m_lo <= masses.min() and masses.max() <= m_hi
    m_se = (m_hi - m_lo) / math.sqrt(12.0 * n)
    assert abs(masses.mean() - 0.5 * (m_lo + m_hi)) < 3.0 * m_se


def test_invalid_config_fails_at_construction():
    with pytest.raises(ValueError):
        EnvConfig(episode_length=100, success_streak_length=200)
    with pytest.raises(ValueError):
        EnvConfig(action_noise_fraction=1.0)
    with pytest.raises(ValueError):
        RandomizationSpec(target_mass_range=(0.0, 1.0))
    with pytest.raises(ValueError):
        EnvConfig(target_half_extents=(0.05, 0.0, 0.05))
    with pytest.raises(ValueError):
        RandomizationSpec(target_position_low=(1, 0, 0), target_position_high=(0, 0, 0))


# ---------------------------------------------------------------- step
def test_step_zero_action_distant_target():
    env = SoftCaptureEnv(quiet_config())
    env.reset(seed=0)
    result = env.step(np.zeros(6))
    assert result.terms.r_surr == 0.0
    assert result.terms.r_contact == 0.0
    assert 0.0 < result.reward < 2.0
    assert result.reward == result.terms.r_dist + result.terms.r_align


def test_step_after_done_rejected():
    env = SoftCaptureEnv(quiet_config(episode_length=25, success_streak_length=20))
    env.reset(seed=0)
    for _ in range(25):
        result = env.step(np.zeros(6))
    assert result.done
    with pytest.raises(RuntimeError):
        env.step(np.zeros(6))


def test_step_before_reset_rejected():
    env = SoftCaptureEnv(quiet_config())
    with pytest.raises(RuntimeError):
        env.step(np.zeros(6))


def test_action_noise_bounds():
    cfg = quiet_config(action_noise_fraction=0.10)
    env = SoftCaptureEnv(cfg)
    env.reset(seed=3)
    action = np.array([0.5, -0.8, 0.2, 0.0, 1.0, -1.0])
    env.step(action)
    record = env.trace[-1]
    assert np.array_equal(record.action_pre, action)
    assert np.all(np.abs(record.action_post - action) <= 0.10 * np.abs(action) + 1e-12)
    assert np.all(np.abs(record.action_post) <= 1.0)
    # Zero components stay exactly zero under multiplicative noise.
    assert record.action_post[3] == 0.0


def test_observation_layout_and_width():
    env = SoftCaptureEnv(quiet_config())
    obs = env.reset(seed=0)
    assert obs.shape == (39,)
    tactile_env = SoftCaptureEnv(quiet_config(tactile_enabled=True))
    obs_t = tactile_env.reset(seed=0)
    assert obs_t.shape == (40,)
    assert obs_t[39] == 0.0  # no contact at reset


def test_observation_blocks_zero_noise():
    env = SoftCaptureEnv(quiet_config())
    obs = env.reset(seed=5)
    g, t = env.gripper, env.target
    assert np.allclose(obs[0:3], g.pose.position)
    assert np.allclose(obs[3:6], spatial.quat_to_euler_xyz(g.pose.orientation))
    assert np.allclose(obs[6:12], 0.0)  # gripper at rest after reset
    assert np.allclose(obs[12:15], t.pose.position)
    assert np.allclose(obs[18:24], 0.0)  # static target
    assert np.allclose(obs[24:27], g.pose.position - t.pose.position)
    assert np.allclose(
        obs[27:30], spatial.orientation_error(g.pose.orientation, t.pose.orientation)
    )
    assert np.allclose(obs[30:36], 0.0)
    assert np.all(obs[36:39] >= 0.0)


def test_observation_difference_block_zero_for_coincident_poses():
    cfg = quiet_config(
        randomization=quiet_randomization(
            target_position_low=(0.0, 0.0, 0.0), target_position_high=(0.0, 0.0, 0.0)
        )
    )
    env = SoftCaptureEnv(cfg)
    obs = env.reset(seed=0)
    assert np.allclose(obs[24:36], 0.0, atol=1e-12)


def test_observation_min_distance_block_known_configuration():
    env = SoftCaptureEnv(quiet_config())
    obs = env.reset(seed=0)
    # Brute-force closest pair over sphere surfaces and dense box surface.
    g, box = env.gripper, Obb(env.target.pose, env.config.target_half_extents)
    rng = np.random.default_rng(0)
    h = box.half_extents
    pts = rng.uniform(-h, h, size=(200_000, 3))
    axis = rng.integers(0, 3, size=len(pts))
    sign = rng.choice([-1.0, 1.0], size=len(pts))
    pts[np.arange(len(pts)), axis] = sign * h[axis]
    world = box.pose.position + pts @ spatial.quat_to_matrix(box.pose.orientation).T
    best = (None, None, np.inf)
    for center, radius in zip(g.world_sphere_centers, g.sphere_radii):
        d = np.linalg.norm(world - center, axis=1)
        i = int(np.argmin(d))
        gap = d[i] - radius
        if gap < best[2]:
            u = (world[i] - center) / d[i]
            best = (center + radius * u, world[i], gap)
    expected = np.abs(best[0] - best[1])
    assert np.allclose(obs[36:39], expected, atol=2e-3)


def test_min_distance_block_is_unsigned():
    # The per-axis block is |(r - d) u| for the nearest sphere, so a sphere
    # as far clear of a face as another is into it reads the same; only the
    # contact query tells them apart.  Every length here is dyadic, so the
    # block is exact.
    box = Obb(Pose(), [0.125] * 3)
    blocks, counts = [], []
    for gap in (0.03125, -0.03125):
        g = dynamics.GripperBody(pose=Pose([0.125 + 0.0625 + gap, 0.0, 0.0]),
                                 sphere_centers=np.zeros((1, 3)), sphere_radii=np.array([0.0625]))
        blocks.append(dynamics.closest_pair_per_axis(g, box))
        counts.append(len(dynamics.detect_contacts(g, box)))
    assert blocks[0].tobytes() == blocks[1].tobytes() == np.array([0.03125, 0.0, 0.0]).tobytes()
    assert counts == [0, 1]


def test_noise_free_determinism_across_runs():
    cfg = quiet_config()
    actions = np.random.default_rng(9).uniform(-1, 1, (30, 6))

    def rollout():
        env = SoftCaptureEnv(cfg)
        obs = [env.reset(seed=11)]
        rewards = []
        for a in actions:
            r = env.step(a)
            obs.append(r.obs)
            rewards.append(r.reward)
        return np.array(obs[:-1]), np.array(rewards)

    o1, r1 = rollout()
    o2, r2 = rollout()
    assert np.array_equal(o1, o2)
    assert np.array_equal(r1, r2)


def test_tactile_only_difference():
    base = EnvConfig(episode_length=40, success_streak_length=20)
    env_plain = SoftCaptureEnv(replace(base, tactile_enabled=False))
    env_tactile = SoftCaptureEnv(replace(base, tactile_enabled=True))
    actions = np.random.default_rng(2).uniform(-1, 1, (40, 6))
    obs_p = env_plain.reset(seed=21)
    obs_t = env_tactile.reset(seed=21)
    assert np.array_equal(obs_p, obs_t[:39])
    for a in actions:
        rp = env_plain.step(a)
        rt = env_tactile.step(a)
        assert np.array_equal(rp.obs, rt.obs[:39])
        assert rp.reward == rt.reward
        assert rt.obs[39] == rt.info["contact_force"]
        assert np.array_equal(
            env_plain.target.pose.position, env_tactile.target.pose.position
        )


def test_contact_penalty_matches_reported_force():
    # Drive the gripper into the target and check the coupling between the
    # tactile force and the contact term.
    cfg = quiet_config(
        episode_length=500,
        success_streak_length=200,
        randomization=quiet_randomization(
            target_position_low=(0.25, 0.0, 0.0), target_position_high=(0.25, 0.0, 0.0)
        ),
    )
    env = SoftCaptureEnv(cfg)
    env.reset(seed=0)
    saw_contact = False
    for _ in range(300):
        result = env.step([1.0, 0, 0, 0, 0, 0])
        if result.info["contact_force"] > 0.0:
            saw_contact = True
            assert result.terms.r_contact == -1.0
        else:
            assert result.terms.r_contact == 0.0
        if saw_contact and result.info["contact_force"] == 0.0:
            break
    assert saw_contact


def test_step_reports_contact_solver_health():
    cfg = quiet_config(
        episode_length=500,
        success_streak_length=200,
        randomization=quiet_randomization(
            target_position_low=(0.25, 0.0, 0.0), target_position_high=(0.25, 0.0, 0.0)
        ),
    )
    env = SoftCaptureEnv(cfg)
    env.reset(seed=0)
    touched = 0
    for _ in range(60):
        info = env.step([1.0, 0, 0, 0, 0, 0]).info
        assert info["solver_residual"] >= 0.0
        if info["contact_count"] == 0:
            assert info["max_depth"] == info["solver_residual"] == info["contact_force"] == 0.0
        else:
            touched += 1
            assert 1 <= info["contact_count"] <= 10
            assert 0.0 < info["max_depth"] < 0.05
    assert touched > 0


def _reference_detect_contacts(g, box):
    # Every sphere through the scalar query, centers taken from the pose.
    centers = g.pose.position + g.sphere_centers @ spatial.quat_to_matrix(g.pose.orientation).T
    queries = [spatial.sphere_obb_query(c, float(r), box) for c, r in zip(centers, g.sphere_radii)]
    return [q.contact for q in queries if q.signed_distance < 0.0]


def _reference_closest_pair_per_axis(g, box):
    centers = g.pose.position + g.sphere_centers @ spatial.quat_to_matrix(g.pose.orientation).T
    queries = [spatial.sphere_obb_query(c, float(r), box) for c, r in zip(centers, g.sphere_radii)]
    best = min(range(len(queries)), key=lambda i: queries[i].signed_distance)
    center, closest = centers[best].tolist(), queries[best].closest_point.tolist()
    u = [q - c for q, c in zip(closest, center)]
    d = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
    if d <= 1e-12:
        u = [p - c for p, c in zip(box.pose.position.tolist(), center)]
        d = math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
        if d <= 1e-12:
            u, d = [1.0, 0.0, 0.0], 1.0
    radius = float(g.sphere_radii[best])
    return np.array([abs(c + radius * (ui / d) - q) for c, ui, q in zip(center, u, closest)])


class _ReferenceEnv(SoftCaptureEnv):
    """The control step composed from the public per-object functions: an
    ``Obb``, a ``RigidBody`` and a ``Pose`` per substep, per-sphere scalar
    queries for the contacts, ``step_free_body`` for the flight, and the
    observation's closest pair through a box of its own."""

    def step(self, action):
        cfg = self.config
        action = np.clip(np.asarray(action, dtype=float).reshape(6), -1.0, 1.0)
        noise = self._rng.uniform(-1.0, 1.0, 6)
        noisy = np.clip(action + cfg.action_noise_fraction * np.abs(action) * noise, -1.0, 1.0)
        g = self._gripper = dynamics.apply_gripper_action(self._gripper, noisy, cfg.action_limits,
                                                          cfg.control_dt)
        dt = cfg.control_dt / cfg.physics_substeps
        impulse, count, depth, residual = 0.0, 0, 0.0, 0.0
        for _ in range(cfg.physics_substeps):
            box = Obb(self._target.pose, self._half_extents)
            contacts = _reference_detect_contacts(g, box)
            if contacts:
                self._target, result = dynamics.resolve_contacts(self._target, box, contacts,
                                                                 g.velocity_at, dt)
                impulse += result.total_normal_impulse
                count = max(count, len(contacts))
                depth = max(depth, result.max_depth)
                residual = max(residual, result.residual)
            self._target = dynamics.step_free_body(self._target, dt)
        force = impulse / cfg.control_dt
        reward, terms = compute_reward(g.pose, g.finger_region, self._target.pose, self._half_extents,
                                       force, margin=cfg.containment_margin)
        self._step_count += 1
        self._done = self._step_count == cfg.episode_length
        self._streak = self._streak + 1 if reward > SUCCESS_REWARD_THRESHOLD else 0
        obs = self._assemble_observation(force)
        self._trace.append(TraceRecord(self._step_count, action, noisy, terms, reward, force,
                                       g.pose, self._target.pose))
        return StepResult(obs, reward, terms, self._done,
                          {"success_streak": self._streak, "contact_force": force,
                           "contact_count": count, "max_depth": depth, "solver_residual": residual})

    def _assemble_observation(self, contact_force, target_rotation=None):
        rnd = self.config.randomization
        g, t = self._gripper, self._target
        raw = self._rng.uniform(-1.0, 1.0, 9)
        t_pos = t.pose.position + raw[0:3] * rnd.obs_position_noise
        t_lin = t.lin_vel + raw[3:6] * rnd.obs_velocity_noise
        t_ang = spatial.quat_to_matrix(t.pose.orientation) @ t.ang_vel + raw[6:9] * rnd.obs_velocity_noise
        parts = [
            g.pose.position, spatial.quat_to_euler_xyz(g.pose.orientation), g.lin_vel, g.ang_vel,
            t_pos, spatial.quat_to_euler_xyz(t.pose.orientation), t_lin, t_ang,
            g.pose.position - t_pos, spatial.orientation_error(g.pose.orientation, t.pose.orientation),
            g.lin_vel - t_lin, g.ang_vel - t_ang,
            _reference_closest_pair_per_axis(g, Obb(t.pose, self._half_extents)),
        ]
        if self.config.tactile_enabled:
            parts.append(np.array([contact_force]))
        return np.concatenate(parts)


def test_env_step_matches_reference_substep_loop():
    # A pursuit controller on a target within reach keeps the fingers on
    # the box.  The reference runs the same episodes through _ReferenceEnv.
    cfg = EnvConfig(tactile_enabled=True, episode_length=30, success_streak_length=15,
                    randomization=RandomizationSpec(target_position_low=(0.25, -0.03, -0.03),
                                                    target_position_high=(0.35, 0.03, 0.03)))

    def rollout(env):
        arrays, values, records = [], [], []
        for seed in (3, 4, 5, 6):
            arrays.append(env.reset(seed))
            for _ in range(cfg.episode_length):
                g, t = env.gripper, env.target
                d = t.pose.position - g.pose.position
                move = t.lin_vel * cfg.control_dt + 0.5 * d * (1.0 - 0.10 / max(np.linalg.norm(d), 1e-9))
                local = spatial.quat_to_matrix(g.pose.orientation).T @ move
                action = np.zeros(6)
                action[:3] = np.clip(local / cfg.action_limits.max_translation_step, -1.0, 1.0)
                r = env.step(action)
                t = env.target
                arrays += [r.obs, t.lin_vel, t.ang_vel]
                values.append((r.reward, r.terms, r.done, r.info))
            for rec in env.trace:
                arrays += [rec.action_pre, rec.action_post,
                           rec.gripper_pose.position, rec.gripper_pose.orientation,
                           rec.target_pose.position, rec.target_pose.orientation]
                records.append((rec.step, rec.terms, rec.reward, rec.contact_force))
        return arrays, values, records

    fast_arrays, fast_values, fast_records = rollout(SoftCaptureEnv(cfg))
    ref_arrays, ref_values, ref_records = rollout(_ReferenceEnv(cfg))

    assert len(fast_arrays) == len(ref_arrays)
    # Bitwise: array_equal would let -0.0 stand for 0.0.
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(fast_arrays, ref_arrays))
    assert fast_values == ref_values and fast_records == ref_records
    contact_steps = sum(info["contact_count"] > 0 for _, _, _, info in fast_values)
    assert contact_steps >= 0.3 * len(fast_values)


def test_contact_free_substeps_build_no_objects(monkeypatch):
    # Only contacts make a substep build simulator objects: over steps with
    # none, doubling the substeps leaves the constructions unchanged.
    built = collections.Counter()
    for cls in (Pose, Obb, RigidBody):
        def counting(self, _init=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _init(self)
        monkeypatch.setattr(cls, "__post_init__", counting)

    counts = []
    for substeps in (4, 8):
        env = SoftCaptureEnv(quiet_config(physics_substeps=substeps))
        env.reset(seed=0)
        rng = np.random.default_rng(9)
        built.clear()
        for _ in range(10):
            assert env.step(rng.uniform(-1.0, 1.0, 6)).info["contact_count"] == 0
        counts.append(dict(built))
    assert counts[0] == counts[1]
    assert set(counts[0]) == {"Pose", "RigidBody"}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_step_refuses_non_finite_action(bad):
    env, twin = SoftCaptureEnv(quiet_config()), SoftCaptureEnv(quiet_config())
    for e in (env, twin):
        e.reset(seed=0)
        e.step([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    pose, record = env.gripper.pose, env.trace[0]
    with pytest.raises(ValueError, match=r"^action must be finite, got \[0\.2, .*(nan|inf)"):
        env.step([0.2, 0.0, bad, 0.0, 0.0, 0.0])
    assert env.gripper.pose is pose and len(env.trace) == 1 and env.trace[0] is record
    # Step count and generator state as if the refused call never happened.
    action = [0.2, -0.1, 0.3, 0.0, 0.1, 0.0]
    got, expected = env.step(action), twin.step(action)
    assert got.obs.tobytes() == expected.obs.tobytes()
    assert env.trace[-1].step == twin.trace[-1].step == 2
    assert env.trace[-1].action_post.tobytes() == twin.trace[-1].action_post.tobytes()


def test_success_streak_info_counts():
    env = SoftCaptureEnv(quiet_config())
    env.reset(seed=0)
    streaks = [env.step(np.zeros(6)).info["success_streak"] for _ in range(5)]
    assert streaks == [0, 0, 0, 0, 0]  # distant target never beats 2.0


def test_translation_only_action_dim():
    cfg = quiet_config(translation_only=True)
    env = SoftCaptureEnv(cfg)
    assert env.action_dim == 3
    env.reset(seed=0)
    q0 = env.gripper.pose.orientation.copy()
    env.step([1.0, 0.0, 0.0])
    assert np.array_equal(env.gripper.pose.orientation, q0)
    assert env.gripper.pose.position[0] > 0.0


# ---------------------------------------------------------------- traces
def test_trace_round_trip(tmp_path):
    env = SoftCaptureEnv(quiet_config(episode_length=25, success_streak_length=20))
    env.reset(seed=0)
    rng = np.random.default_rng(4)
    for _ in range(25):
        env.step(rng.uniform(-1, 1, 6))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, env.trace)
    header, rows = read_table(path)
    assert len(rows) == 25
    assert header[0] == "step"
    reward_idx = header.index("reward")
    for record, row in zip(env.trace, rows):
        assert float(row[reward_idx]) == record.reward  # repr round trip is exact


def test_table_row_round_trips_every_cell_kind(tmp_path):
    floats = [float("nan"), float("inf"), -0.0, 5e-324, 0.1, np.float64(0.1) + np.float64(0.2)]
    path = tmp_path / "table.csv"
    write_table(path, ["f0", "f1", "f2", "f3", "f4", "f5", "n", "t", "f", "none", "s"],
                [[*floats, 2**70, True, False, None, 'a,"b"']])
    with open(path, newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 11
    assert [struct.pack("<d", float(v)) for v in row[:6]] == [struct.pack("<d", v) for v in floats]
    assert row[6:] == [str(2**70), "1", "0", "", 'a,"b"']
    write_table(path, ["x"], [[floats[5]]])
    assert read_table(path) == (["x"], [[repr(float(floats[5]))]])
    assert float(read_table(path)[1][0][0]) == floats[5]


def test_trace_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("step,reward\n1,2.0\n1,not_a_number\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: reward: 'not_a_number' is not"):
        read_table(path)
    path.write_text("step,reward\n1,2.0,3.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: expected 2 fields, got 3"):
        read_table(path)
    # A bad row past the limit is neither read nor checked.
    assert read_table(path, limit=0) == (["step", "reward"], [])
    path.write_text("")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: header is \\[\\], expected a header row"):
        read_table(path)
    path.write_text("step,reward\n")
    with pytest.raises(ValueError, match=r"header is \['step', 'reward'\], expected \['step'\]"):
        read_table(path, ["step"])
