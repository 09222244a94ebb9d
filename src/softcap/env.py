"""Soft-capture task environment.

A kinematic 6-DOF gripper chases a free-floating tumbling box.  Episodes
are fixed length; success means holding the per-step reward above a
threshold for a long enough consecutive streak.  The reward is the sum of
four terms: dense distance and alignment shaping, a sparse 0/1 enclosure
bonus when a box corner sits inside the finger region, and a -1 penalty
whenever the gripper transmits normal contact force to the target.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import dynamics, spatial
from .checks import check_fields
from .dynamics import ActionLimits, GripperBody, RigidBody
from .files import replacing
from .spatial import ConvexRegion, Obb, Pose

# A step counts toward a success streak when its reward exceeds this.  As
# r_dist + r_align <= 2, only a step with the enclosure bonus and no contact
# does.
SUCCESS_REWARD_THRESHOLD = 2.0


class RewardTerms(NamedTuple):
    r_dist: float
    r_align: float
    r_surr: float
    r_contact: float


@dataclass
class RandomizationSpec:
    """Per-episode randomization ranges plus observation noise half-widths.

    All ranges are inclusive (low, high) bounds sampled uniformly; a range
    may be degenerate (low == high), which pins the value.
    """

    target_position_low: Tuple[float, float, float] = (0.4, -0.2, -0.2)
    target_position_high: Tuple[float, float, float] = (0.8, 0.2, 0.2)
    gripper_orientation_low: Tuple[float, float, float] = (-0.2618, -0.2618, -0.2618)
    gripper_orientation_high: Tuple[float, float, float] = (0.2618, 0.2618, 0.2618)
    target_lin_vel_low: Tuple[float, float, float] = (-0.02, -0.02, -0.02)
    target_lin_vel_high: Tuple[float, float, float] = (0.02, 0.02, 0.02)
    target_ang_vel_low: Tuple[float, float, float] = (-0.09, -0.09, -0.09)
    target_ang_vel_high: Tuple[float, float, float] = (0.09, 0.09, 0.09)
    target_mass_range: Tuple[float, float] = (0.5, 2.0)
    obs_position_noise: float = 0.005   # m, uniform half-width
    obs_velocity_noise: float = 0.005   # m/s (and rad/s), uniform half-width

    def __post_init__(self):
        check_fields(self)
        for name in ("target_position", "gripper_orientation", "target_lin_vel", "target_ang_vel"):
            if any(lo > hi for lo, hi in zip(getattr(self, name + "_low"), getattr(self, name + "_high"))):
                raise ValueError(f"{name}_low must be <= {name}_high")
        lo, hi = self.target_mass_range
        if lo <= 0.0 or lo > hi:
            raise ValueError("target_mass_range must satisfy 0 < low <= high")
        if self.obs_position_noise < 0.0 or self.obs_velocity_noise < 0.0:
            raise ValueError("obs_position_noise and obs_velocity_noise must be >= 0")


@dataclass
class EnvConfig:
    tactile_enabled: bool = False
    episode_length: int = 500
    control_dt: float = 1.0 / 60.0
    physics_substeps: int = 4
    action_limits: ActionLimits = field(default_factory=ActionLimits)
    randomization: RandomizationSpec = field(default_factory=RandomizationSpec)
    containment_margin: float = 0.005
    success_streak_length: int = 200
    action_noise_fraction: float = 0.10
    translation_only: bool = False
    target_half_extents: Tuple[float, float, float] = (0.05, 0.05, 0.05)

    def __post_init__(self):
        check_fields(self)
        if self.episode_length < self.success_streak_length:
            raise ValueError("episode_length must be >= success_streak_length")
        if not 0.0 <= self.action_noise_fraction < 1.0:
            raise ValueError("action_noise_fraction must lie in [0, 1)")
        if self.control_dt <= 0.0 or self.physics_substeps < 1:
            raise ValueError("control_dt must be > 0 and physics_substeps >= 1")
        if self.containment_margin < 0.0:
            raise ValueError("containment_margin must be >= 0")
        if self.success_streak_length < 1:
            raise ValueError("success_streak_length must be >= 1")
        if min(self.target_half_extents) <= 0.0:
            raise ValueError("target_half_extents must be strictly positive")


@dataclass
class StepResult:
    """One control step.  ``info`` holds ``success_streak``, ``contact_force``
    and the contact solver's health, each the largest over the step's
    substeps: ``contact_count``, ``max_depth`` (m) and ``solver_residual``
    (m/s, see ``dynamics.ContactResult``)."""

    obs: np.ndarray
    reward: float
    terms: RewardTerms
    done: bool
    info: Dict[str, float]


@dataclass
class TraceRecord:
    """One timestep of an episode trace (CSV row, see ``trace_columns``)."""

    step: int
    action_pre: np.ndarray
    action_post: np.ndarray
    terms: RewardTerms
    reward: float
    contact_force: float
    gripper_pose: Pose
    target_pose: Pose


def compute_reward(
    gripper_pose: Pose,
    finger_region: ConvexRegion,
    target_pose: Pose,
    target_half_extents,
    contact_force: float,
    margin: float = 0.0,
    *,
    target_rotation: Optional[np.ndarray] = None,
) -> Tuple[float, RewardTerms]:
    """Reward of a world state: distance and alignment shaping through
    1 - tanh(L2 error), +1 if any target corner is enclosed by the fingers,
    -1 if any normal contact force was transmitted this step.  The
    alignment goal is the target's orientation, normalized.
    ``target_rotation`` is the rotation matrix of ``target_pose``, for a
    caller that already has it."""
    dist = float(np.linalg.norm(gripper_pose.position - target_pose.position))
    r_dist = 1.0 - math.tanh(dist)

    goal_orientation = spatial.quat_normalize(target_pose.orientation)
    err = spatial.orientation_error(gripper_pose.orientation, goal_orientation)
    r_align = 1.0 - math.tanh(float(np.linalg.norm(err)))

    if target_rotation is None:
        target_rotation = spatial.quat_to_matrix(target_pose.orientation)
    corners = spatial.box_corners(target_pose.position, target_rotation, target_half_extents)
    inside = spatial.contains_points(finger_region, gripper_pose, corners, margin)
    r_surr = 1.0 if bool(np.any(inside)) else 0.0

    r_contact = -1.0 if contact_force > 0.0 else 0.0
    terms = RewardTerms(r_dist, r_align, r_surr, r_contact)
    return r_dist + r_align + r_surr + r_contact, terms


def longest_streak(rewards: Sequence[float], threshold: float) -> int:
    """Length of the longest run of consecutive entries strictly above threshold."""
    best = run = 0
    for r in rewards:
        run = run + 1 if r > threshold else 0
        best = max(best, run)
    return best


def is_success(rewards: Sequence[float], threshold: float = SUCCESS_REWARD_THRESHOLD,
               streak_length: int = 200) -> bool:
    """True iff some ``streak_length`` consecutive rewards all exceed threshold."""
    return longest_streak(rewards, threshold) >= streak_length


class SoftCaptureEnv:
    """Fixed-length episodic MDP around the dynamics layer.

    Action (continuous, [-1, 1] per component):
        6-dim displacement of the gripper in its own body frame
        (dx, dy, dz, droll, dpitch, dyaw), scaled by the action limits.
        With ``translation_only`` the action is 3-dim and rotation is frozen.

    Observation layout (inertial frame, 39 entries; 40 with tactile):
        ========== ===== ============================================
        Index      Dim   Content
        ========== ===== ============================================
        0..3         3   gripper position (m)
        3..6         3   gripper orientation, Euler XYZ (rad)
        6..9         3   gripper linear velocity (m/s)
        9..12        3   gripper angular velocity (rad/s)
        12..15       3   target position (m, noisy)
        15..18       3   target orientation, Euler XYZ (rad)
        18..21       3   target linear velocity (m/s, noisy)
        21..24       3   target angular velocity (rad/s, noisy)
        24..27       3   position difference, gripper - target
        27..30       3   orientation difference, Euler XYZ (rad)
        30..33       3   linear velocity difference
        33..36       3   angular velocity difference
        36..39       3   per-axis minimum surface distance (m)
        39           1   total normal contact force (N), tactile only
        ========== ===== ============================================

    Difference blocks reuse the same noisy target samples shown in the
    target blocks, so the observation is internally consistent.  The
    per-episode randomization and every noise draw come from one generator
    seeded at ``reset``, which makes episodes bit-reproducible.
    """

    def __init__(self, config: EnvConfig):
        self.config = config
        self._half_extents = np.asarray(config.target_half_extents, dtype=float)
        self._rng: Optional[np.random.Generator] = None
        self._gripper: Optional[GripperBody] = None
        self._target: Optional[RigidBody] = None
        self._step_count = 0
        self._done = True
        self._streak = 0
        self._trace: List[TraceRecord] = []

    @property
    def observation_dim(self) -> int:
        return 40 if self.config.tactile_enabled else 39

    @property
    def action_dim(self) -> int:
        return 3 if self.config.translation_only else 6

    @property
    def gripper(self) -> GripperBody:
        assert self._gripper is not None, "reset the environment first"
        return self._gripper

    @property
    def target(self) -> RigidBody:
        assert self._target is not None, "reset the environment first"
        return self._target

    @property
    def trace(self) -> List[TraceRecord]:
        return list(self._trace)

    def is_success(self) -> bool:
        cfg = self.config
        if self._step_count != cfg.episode_length:
            raise ValueError("success is defined over a complete episode trace")
        return is_success([r.reward for r in self._trace], SUCCESS_REWARD_THRESHOLD,
                          cfg.success_streak_length)

    def reset(self, seed: int) -> np.ndarray:
        """Start a new episode.  Draw order is fixed: target position,
        gripper orientation, target linear then angular velocity, mass,
        then the 9 observation-noise values."""
        cfg = self.config
        rnd = cfg.randomization
        self._rng = np.random.default_rng(seed)

        target_pos = self._rng.uniform(rnd.target_position_low, rnd.target_position_high)
        gripper_euler = self._rng.uniform(rnd.gripper_orientation_low, rnd.gripper_orientation_high)
        target_lin = self._rng.uniform(rnd.target_lin_vel_low, rnd.target_lin_vel_high)
        target_ang = self._rng.uniform(rnd.target_ang_vel_low, rnd.target_ang_vel_high)
        mass = float(self._rng.uniform(*rnd.target_mass_range))

        self._gripper = dynamics.build_open_gripper(
            Pose(orientation=spatial.quat_normalize(spatial.euler_xyz_to_quat(gripper_euler))))
        self._target = RigidBody(
            pose=Pose(target_pos, spatial.quat_identity()),
            lin_vel=target_lin,
            ang_vel=target_ang,
            mass=mass,
            inertia_diag=dynamics.box_inertia_diag(mass, self._half_extents),
        )
        self._step_count = 0
        self._done = False
        self._streak = 0
        self._trace = []
        return self._assemble_observation(0.0, spatial.quat_to_matrix(self._target.pose.orientation))

    def step(self, action) -> StepResult:
        """One control step: move the gripper, then run ``physics_substeps``
        contact and free-flight substeps on the target.

        The substeps carry the target's state as floats and build no
        object unless there are contacts; ``env.target`` is built once,
        after the last substep.  A non-finite action is refused before it
        changes anything.
        """
        if self._done or self._rng is None:
            raise RuntimeError("step called on a finished episode; call reset first")
        cfg = self.config
        action = np.asarray(action, dtype=float).reshape(self.action_dim)
        if not np.isfinite(action).all():
            raise ValueError(f"action must be finite, got {action.tolist()}")
        action = np.clip(action, -1.0, 1.0)

        # Per-component noise of up to +-fraction of the commanded magnitude.
        noise = self._rng.uniform(-1.0, 1.0, self.action_dim)
        noisy = np.clip(action + cfg.action_noise_fraction * np.abs(action) * noise, -1.0, 1.0)

        full_action = noisy
        if cfg.translation_only:
            full_action = np.concatenate([noisy, np.zeros(3)])
        self._gripper = dynamics.apply_gripper_action(
            self._gripper, full_action, cfg.action_limits, cfg.control_dt
        )

        g, t = self._gripper, self._target
        centers, radii = g.world_sphere_centers.tolist(), g.sphere_radii.tolist()
        half_extents, inertia = self._half_extents.tolist(), t.inertia_diag.tolist()
        position, orientation = t.pose.position.tolist(), t.pose.orientation.tolist()
        lin_vel, ang_vel = t.lin_vel, t.ang_vel.tolist()
        velocity = lin_vel.tolist()
        dt_phys = cfg.control_dt / cfg.physics_substeps
        impulse_total = 0.0
        contact_count, max_depth, residual = 0, 0.0, 0.0
        for _ in range(cfg.physics_substeps):
            rot = spatial.rotation_entries(*orientation)
            contacts = spatial.sphere_pass(centers, radii, position, half_extents, rot).contacts
            if contacts:
                # The solver takes the per-object form, through the module so
                # that a wrapper installed on it sees every call.
                pose = Pose(np.array(position), np.array(orientation))
                body, result = dynamics.resolve_contacts(
                    RigidBody(pose, lin_vel, np.array(ang_vel), t.mass, t.inertia_diag),
                    Obb(pose, self._half_extents), contacts, g.velocity_at, dt_phys,
                )
                lin_vel, ang_vel = body.lin_vel, body.ang_vel.tolist()
                velocity = lin_vel.tolist()
                impulse_total += result.total_normal_impulse
                contact_count = max(contact_count, len(contacts))
                max_depth = max(max_depth, result.max_depth)
                residual = max(residual, result.residual)
            position, orientation, ang_vel = dynamics.free_body_rk4(
                position, orientation, ang_vel, velocity, inertia, dt_phys)
        self._target = RigidBody(Pose(np.array(position), np.array(orientation)), lin_vel,
                                 np.array(ang_vel), t.mass, t.inertia_diag)
        contact_force = impulse_total / cfg.control_dt

        # The final pose's rotation serves the reward and the observation.
        target_rotation = spatial.quat_to_matrix(self._target.pose.orientation)
        reward, terms = compute_reward(
            g.pose,
            g.finger_region,
            self._target.pose,
            self._half_extents,
            contact_force,
            margin=cfg.containment_margin,
            target_rotation=target_rotation,
        )

        self._step_count += 1
        self._done = self._step_count == cfg.episode_length
        self._streak = self._streak + 1 if reward > SUCCESS_REWARD_THRESHOLD else 0

        obs = self._assemble_observation(contact_force, target_rotation)
        # Both actions are fresh arrays, and the simulator replaces poses
        # rather than writing into them, so the record keeps them as they are.
        self._trace.append(
            TraceRecord(
                step=self._step_count,
                action_pre=action,
                action_post=noisy,
                terms=terms,
                reward=reward,
                contact_force=contact_force,
                gripper_pose=g.pose,
                target_pose=self._target.pose,
            )
        )
        return StepResult(
            obs=obs,
            reward=reward,
            terms=terms,
            done=self._done,
            info={"success_streak": self._streak, "contact_force": contact_force,
                  "contact_count": contact_count, "max_depth": max_depth,
                  "solver_residual": residual},
        )

    # ------------------------------------------------------------------
    def _assemble_observation(self, contact_force: float, target_rotation: np.ndarray) -> np.ndarray:
        """The observation of the current state; ``target_rotation`` is the
        rotation matrix of the target's orientation."""
        rnd = self.config.randomization
        g = self._gripper
        t = self._target

        # 9 draws every call, scaled afterwards, so the draw count never
        # depends on the configured widths or the tactile flag.
        raw = self._rng.uniform(-1.0, 1.0, 9)
        pos_noise = raw[0:3] * rnd.obs_position_noise
        lin_noise = raw[3:6] * rnd.obs_velocity_noise
        ang_noise = raw[6:9] * rnd.obs_velocity_noise

        t_pos = t.pose.position + pos_noise
        t_lin = t.lin_vel + lin_noise
        t_ang = target_rotation @ t.ang_vel + ang_noise

        g_euler = spatial.quat_to_euler_xyz(g.pose.orientation)
        t_euler = spatial.quat_to_euler_xyz(t.pose.orientation)
        orient_diff = spatial.orientation_error(g.pose.orientation, t.pose.orientation)
        centers, radii = g.world_sphere_centers.tolist(), g.sphere_radii.tolist()
        position = t.pose.position.tolist()
        found = spatial.sphere_pass(centers, radii, position, self._half_extents.tolist(),
                                    target_rotation.ravel().tolist())
        min_dist = dynamics.pair_per_axis(found, centers, radii, position)

        parts = [
            g.pose.position,
            g_euler,
            g.lin_vel,
            g.ang_vel,
            t_pos,
            t_euler,
            t_lin,
            t_ang,
            g.pose.position - t_pos,
            orient_diff,
            g.lin_vel - t_lin,
            g.ang_vel - t_ang,
            min_dist,
        ]
        if self.config.tactile_enabled:
            parts.append(np.array([contact_force]))
        obs = np.concatenate(parts)
        if not np.all(np.isfinite(obs)):
            raise FloatingPointError("non-finite observation entries")
        return obs


# ----------------------------------------------------------------------
# Output tables: comma-separated text with one header row.  A float cell is
# the ``repr`` of its Python float, so it reads back to the same bits (a
# numpy float64 is a float, but its own ``repr`` is ``np.float64(...)``);
# a flag is ``1``/``0`` and a missing value is empty.  Every table the
# program writes goes through ``table_row``.
def table_row(values) -> List[str]:
    return [repr(float(v)) if isinstance(v, float) else "" if v is None
            else ("1" if v else "0") if isinstance(v, bool) else str(v) for v in values]


def write_table(path, columns: Sequence[str], rows) -> None:
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(table_row(row) for row in rows)


def read_table(path, columns: Optional[Sequence[str]] = None,
               limit: Optional[int] = None) -> Tuple[List[str], List[List[str]]]:
    """The header of the table at ``path`` and its first ``limit`` rows (all
    by default), each row's cells as read.  The header must be present, and
    be ``columns`` when they are given; each row read must have the
    header's cell count, and every cell must be a number.  A failure names
    the path, and the line of a bad row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if not header or columns is not None and header != list(columns):
            expected = "a header row" if columns is None else list(columns)
            raise ValueError(f"{path}: header is {header}, expected {expected}")
        rows = []
        for row in itertools.islice(reader, limit):
            where = f"{path}:{reader.line_num}"
            if len(row) != len(header):
                raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
            for name, cell in zip(header, row):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"{where}: {name}: {cell!r} is not a number") from None
            rows.append(row)
    return header, rows


# Episode trace files: one row per timestep.
TRACE_REWARD_COLUMNS = ("r_dist", "r_align", "r_surr", "r_contact", "reward", "contact_force")
TRACE_POSE_COLUMNS = tuple(f"{body}_{c}" for body in "gt"
                           for c in ("px", "py", "pz", "qw", "qx", "qy", "qz"))


def trace_columns(action_dim: int) -> List[str]:
    return ["step", *(f"a_pre_{i}" for i in range(action_dim)),
            *(f"a_post_{i}" for i in range(action_dim)),
            *TRACE_REWARD_COLUMNS, *TRACE_POSE_COLUMNS]


def write_trace_csv(path, records: Sequence[TraceRecord]) -> None:
    action_dim = len(records[0].action_pre) if records else 6
    write_table(path, trace_columns(action_dim), (
        [r.step, *r.action_pre.tolist(), *r.action_post.tolist(), *r.terms,
         r.reward, r.contact_force,
         *r.gripper_pose.position.tolist(), *r.gripper_pose.orientation.tolist(),
         *r.target_pose.position.tolist(), *r.target_pose.orientation.tolist()]
        for r in records))
