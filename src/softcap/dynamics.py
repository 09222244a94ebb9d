"""Rigid-body layer: the free-floating target, the kinematic gripper rig,
and impulse-based contact resolution between gripper spheres and the target
box.  No gravity, no friction, zero restitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import spatial
from .checks import check_fields
from .spatial import Contact, ConvexRegion, Obb, Pose, quat_mul, quat_to_matrix, unit_quat_entries

# Contact solver defaults: fixed iteration count, Baumgarte velocity bias.
SOLVER_PASSES = 10
BAUMGARTE_BETA = 0.2

# Open three-finger rig, all in the gripper body frame.  +x is the approach
# axis; fingers sit on rays 120 degrees apart in the y-z plane and flare
# slightly outward so the fingertip circle has a 0.16 m diameter.
PALM_SPHERE_RADIUS = 0.045
FINGER_SPHERE_RADIUS = 0.012
_FINGER_ANGLES = (0.5 * math.pi, 0.5 * math.pi + 2.0 * math.pi / 3.0, 0.5 * math.pi + 4.0 * math.pi / 3.0)
_FINGER_STATIONS = ((0.070, 0.072), (0.115, 0.077), (0.160, 0.080))  # (axial x, ring radius)
_PALM_RING = (0.050, 0.065)


@dataclass
class RigidBody:
    """Dynamic state of the free-floating target.

    ``lin_vel`` is world frame; ``ang_vel`` and ``inertia_diag`` live in the
    body principal-axis frame.  The mass and the inertia are positive:
    ``RandomizationSpec`` checks the mass range and ``EnvConfig`` the half
    extents that ``box_inertia_diag`` turns into the inertia.
    """

    pose: Pose
    lin_vel: np.ndarray
    ang_vel: np.ndarray
    mass: float
    inertia_diag: np.ndarray

    def __post_init__(self):
        self.lin_vel = np.asarray(self.lin_vel, dtype=float)
        self.ang_vel = np.asarray(self.ang_vel, dtype=float)
        self.inertia_diag = np.asarray(self.inertia_diag, dtype=float)

    def angular_momentum_world(self) -> np.ndarray:
        rot = quat_to_matrix(self.pose.orientation)
        return rot @ (self.inertia_diag * self.ang_vel)

    def rotational_energy(self) -> float:
        return 0.5 * float(self.ang_vel @ (self.inertia_diag * self.ang_vel))


@dataclass
class GripperBody:
    """Kinematic 6-DOF gripper: pose, derived velocities, collision spheres
    and the precomputed finger enclosure region (all geometry body frame).

    ``ang_vel`` is world frame, matching how the observation reports it.
    ``world_sphere_centers`` (n, 3) is derived from the pose when the
    gripper is built; a gripper moves by building a new one.  There is one
    radius per center, each positive, as the rig's module constants are.
    """

    pose: Pose
    lin_vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    ang_vel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    sphere_centers: np.ndarray = field(default_factory=lambda: np.zeros((0, 3)))
    sphere_radii: np.ndarray = field(default_factory=lambda: np.zeros(0))
    finger_region: Optional[ConvexRegion] = None
    world_sphere_centers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lin_vel = np.asarray(self.lin_vel, dtype=float)
        self.ang_vel = np.asarray(self.ang_vel, dtype=float)
        self.sphere_centers = np.asarray(self.sphere_centers, dtype=float)
        self.sphere_radii = np.asarray(self.sphere_radii, dtype=float)
        rot = quat_to_matrix(self.pose.orientation)
        self.world_sphere_centers = self.pose.position + self.sphere_centers @ rot.T

    def velocity_at(self, point_world) -> np.ndarray:
        rx, ry, rz = (np.asarray(point_world, dtype=float) - self.pose.position).tolist()
        wx, wy, wz = self.ang_vel.tolist()
        return self.lin_vel + np.array([wy * rz - wz * ry, wz * rx - wx * rz, wx * ry - wy * rx])


@dataclass
class ActionLimits:
    """Per-control-step displacement caps for the 6-dim action."""

    max_translation_step: float = 0.01   # m
    max_rotation_step: float = 0.035     # rad, about 2 degrees

    def __post_init__(self):
        check_fields(self)
        if self.max_translation_step <= 0.0 or self.max_rotation_step <= 0.0:
            raise ValueError("max_translation_step and max_rotation_step must be > 0")


class ContactResult(NamedTuple):
    """Outcome of one resolution pass: the summed normal impulse, the
    deepest penetration and the solver's residual, the largest
    max(bias - v_rel, 0) over the contacts after the last pass (0 when the
    passes met every contact's velocity demand)."""

    total_normal_impulse: float
    max_depth: float
    residual: float


def box_inertia_diag(mass: float, half_extents) -> np.ndarray:
    """Principal inertia of a solid box from its mass and half extents."""
    h = np.asarray(half_extents, dtype=float).reshape(3)
    a, b, c = 2.0 * h
    return mass / 12.0 * np.array([b * b + c * c, a * a + c * c, a * a + b * b])


def open_gripper_region_points() -> np.ndarray:
    """The 12 body-frame points spanning the finger enclosure, finger by
    finger: its 3 sphere centers from the palm outward, then its palm ring
    point."""
    points = []
    for angle in _FINGER_ANGLES:
        ray = np.array([0.0, math.cos(angle), math.sin(angle)])
        for x, ring in _FINGER_STATIONS:
            points.append(np.array([x, 0.0, 0.0]) + ring * ray)
        points.append(np.array([_PALM_RING[0], 0.0, 0.0]) + _PALM_RING[1] * ray)
    return np.array(points)


# The open rig is fixed, so it is built once, at import, and every gripper
# shares its read-only arrays: the palm sphere center, then each finger's
# sphere centers without the palm ring point after them; their radii; and
# the enclosure region spanned by all 12 points.
_RIG_POINTS = open_gripper_region_points()
_RIG_CENTERS = np.vstack([np.zeros(3), _RIG_POINTS.reshape(len(_FINGER_ANGLES), -1, 3)[:, :-1].reshape(-1, 3)])
_RIG_RADII = np.array([PALM_SPHERE_RADIUS] + [FINGER_SPHERE_RADIUS] * (len(_RIG_CENTERS) - 1))
_RIG_REGION = ConvexRegion.from_points(_RIG_POINTS)
_RIG_CENTERS.flags.writeable = _RIG_RADII.flags.writeable = False
_RIG_REGION.normals.flags.writeable = _RIG_REGION.offsets.flags.writeable = False


def build_open_gripper(pose: Optional[Pose] = None) -> GripperBody:
    """Gripper in the fixed open configuration: 3 chains of 3 finger spheres
    plus one palm sphere, and the enclosure region spanned by the 9 finger
    sphere centers and 3 palm ring points."""
    return GripperBody(pose=pose if pose is not None else Pose(), sphere_centers=_RIG_CENTERS,
                       sphere_radii=_RIG_RADII, finger_region=_RIG_REGION)


def _body_rates(y, ix: float, iy: float, iz: float):
    # Torque-free Euler equations in the principal frame plus quaternion
    # kinematics with the body-frame rate on the right, for the state
    # y = (qw, qx, qy, qz, wx, wy, wz).
    qw, qx, qy, qz, wx, wy, wz = y
    lx, ly, lz = ix * wx, iy * wy, iz * wz
    return (
        0.5 * (-qx * wx - qy * wy - qz * wz),
        0.5 * (qw * wx + qy * wz - qz * wy),
        0.5 * (qw * wy - qx * wz + qz * wx),
        0.5 * (qw * wz + qx * wy - qy * wx),
        (ly * wz - lz * wy) / ix,
        (lz * wx - lx * wz) / iy,
        (lx * wy - ly * wx) / iz,
    )


def step_free_body(body: RigidBody, dt: float) -> RigidBody:
    """One torque-free RK4 step: translate by lin_vel, advance (q, omega)."""
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    position, orientation, ang_vel = free_body_rk4(
        body.pose.position.tolist(), body.pose.orientation.tolist(), body.ang_vel.tolist(),
        body.lin_vel.tolist(), body.inertia_diag.tolist(), dt)
    return RigidBody(Pose(np.array(position), np.array(orientation)), body.lin_vel, np.array(ang_vel),
                     body.mass, body.inertia_diag)


def free_body_rk4(position, orientation, ang_vel, lin_vel, inertia, dt: float):
    """``step_free_body`` on float sequences (dt > 0): the new position,
    unit orientation and body-frame angular velocity, as float tuples."""
    y0 = (*orientation, *ang_vel)
    half = 0.5 * dt

    k1 = _body_rates(y0, *inertia)
    k2 = _body_rates([a + half * k for a, k in zip(y0, k1)], *inertia)
    k3 = _body_rates([a + half * k for a, k in zip(y0, k2)], *inertia)
    k4 = _body_rates([a + dt * k for a, k in zip(y0, k3)], *inertia)
    sixth = dt / 6.0
    y = tuple(a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y0, k1, k2, k3, k4))

    (px, py, pz), (vx, vy, vz) = position, lin_vel
    return (px + vx * dt, py + vy * dt, pz + vz * dt), unit_quat_entries(np.array(y[:4])), y[4:]


def apply_gripper_action(
    g: GripperBody, action, limits: ActionLimits, dt: float
) -> GripperBody:
    """Displace the gripper in its own body frame by a [-1, 1]^6 action.

    Components 0..2 scale the translation step, 3..5 the Euler-XYZ rotation
    step.  Velocities are set to displacement / dt (world frame).  Inputs
    outside [-1, 1] are rejected; clipping is the environment's job.
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    action = np.asarray(action, dtype=float).reshape(6)
    if np.any(np.abs(action) > 1.0):
        raise ValueError("action components must lie in [-1, 1]")
    roll, pitch, yaw = action[3:].tolist()
    turn = limits.max_rotation_step

    # Step rotation dq = qx(roll) qy(pitch) qz(yaw) (intrinsic XYZ), w >= 0.
    cr, sr = math.cos(0.5 * roll * turn), math.sin(0.5 * roll * turn)
    cp, sp = math.cos(0.5 * pitch * turn), math.sin(0.5 * pitch * turn)
    cy, sy = math.cos(0.5 * yaw * turn), math.sin(0.5 * yaw * turn)
    dw = cr * cp * cy - sr * sp * sy
    dx = sr * cp * cy + cr * sp * sy
    dy = cr * sp * cy - sr * cp * sy
    dz = cr * cp * sy + sr * sp * cy
    if dw < 0.0:
        dw, dx, dy, dz = -dw, -dx, -dy, -dz
    # Its rotation vector, angle in [0, pi].
    s = math.sqrt(dx * dx + dy * dy + dz * dz)
    scale = 2.0 * math.atan2(s, dw) / s / dt if s >= 1e-12 else 0.0

    rot = quat_to_matrix(g.pose.orientation)
    dp_world = rot @ (action[:3] * limits.max_translation_step)
    ang_vel = rot @ (np.array([dx, dy, dz]) * scale)
    return GripperBody(
        pose=Pose(g.pose.position + dp_world, quat_mul(g.pose.orientation, (dw, dx, dy, dz))),
        lin_vel=dp_world / dt,
        ang_vel=ang_vel,
        sphere_centers=g.sphere_centers,
        sphere_radii=g.sphere_radii,
        finger_region=g.finger_region,
    )


def detect_contacts(g: GripperBody, target: Obb) -> List[Contact]:
    """One contact per gripper sphere overlapping the target box: distances
    for every sphere, contact geometry only for the spheres that overlap."""
    return spatial.sphere_pass(g.world_sphere_centers.tolist(), g.sphere_radii.tolist(),
                               *spatial.obb_entries(target)).contacts


def resolve_contacts(
    target: RigidBody,
    target_box: Obb,
    contacts: Sequence[Contact],
    gripper_vel_at: Callable[[np.ndarray], np.ndarray],
    dt: float,
    passes: int = SOLVER_PASSES,
    beta: float = BAUMGARTE_BETA,
) -> Tuple[RigidBody, ContactResult]:
    """Sequential-impulse resolution against the kinematic gripper.

    The gripper has infinite mass: impulses change only the target.  Each
    contact demands a separating normal velocity of at least beta*depth/dt
    (restitution 0), with the accumulated impulse clamped nonnegative.
    Penetration is corrected only through that velocity bias.

    ``target_box`` is not read: the contacts already carry the box's
    geometry.  It stays in the signature because callers pass the box
    positionally, ahead of the contacts.

    Per contact, everything the passes do not change is computed once: the
    arm r, the normal n, r x n, I^-1 (r x n), the effective mass k, the
    bias and the gripper's normal velocity.  The passes then run on floats,
    using (w x r) . n = w . (r x n).
    """
    if dt <= 0.0:
        raise ValueError("dt must be > 0")
    if not contacts:
        return target, ContactResult(0.0, 0.0, 0.0)

    rot = quat_to_matrix(target.pose.orientation)
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = (
        rot @ np.diag(1.0 / target.inertia_diag) @ rot.T).ravel().tolist()  # world I^-1
    inv_mass = 1.0 / target.mass
    vx, vy, vz = target.lin_vel.tolist()
    wx, wy, wz = (rot @ target.ang_vel).tolist()

    px, py, pz = target.pose.position.tolist()
    rows = []
    for c in contacts:
        nx, ny, nz = c.normal.tolist()
        cx, cy, cz = c.point.tolist()
        rx, ry, rz = cx - px, cy - py, cz - pz
        tx, ty, tz = ry * nz - rz * ny, rz * nx - rx * nz, rx * ny - ry * nx  # r x n
        ix = a00 * tx + a01 * ty + a02 * tz                                  # I^-1 (r x n)
        iy = a10 * tx + a11 * ty + a12 * tz
        iz = a20 * tx + a21 * ty + a22 * tz
        k = inv_mass + ix * tx + iy * ty + iz * tz
        gx, gy, gz = gripper_vel_at(c.point).tolist()
        bias = beta * c.depth / dt
        rows.append((nx, ny, nz, tx, ty, tz, ix, iy, iz, k, bias, gx * nx + gy * ny + gz * nz))

    impulses = [0.0] * len(rows)
    for _ in range(passes):
        for i, (nx, ny, nz, tx, ty, tz, ix, iy, iz, k, bias, g_n) in enumerate(rows):
            v_rel = vx * nx + vy * ny + vz * nz + (wx * tx + wy * ty + wz * tz) - g_n
            new_total = max(0.0, impulses[i] + (bias - v_rel) / k)
            dj = new_total - impulses[i]
            impulses[i] = new_total
            dv = dj * inv_mass
            vx, vy, vz = vx + dv * nx, vy + dv * ny, vz + dv * nz
            wx, wy, wz = wx + dj * ix, wy + dj * iy, wz + dj * iz

    residual = 0.0
    for nx, ny, nz, tx, ty, tz, _, _, _, _, bias, g_n in rows:
        v_rel = vx * nx + vy * ny + vz * nz + (wx * tx + wy * ty + wz * tz) - g_n
        residual = max(residual, bias - v_rel)

    resolved = RigidBody(target.pose, np.array([vx, vy, vz]), rot.T @ np.array([wx, wy, wz]),
                         target.mass, target.inertia_diag)
    # Left to right in a plain loop: the builtin sum compensates its rounding
    # from Python 3.12 on, so its last bit depends on the interpreter.
    total = 0.0
    for j in impulses:
        total += j
    return resolved, ContactResult(total, max(c.depth for c in contacts), residual)


def closest_pair_per_axis(g: GripperBody, target: Obb) -> np.ndarray:
    """Component-wise |difference| of the globally closest point pair
    between the gripper sphere surfaces and the target box surface (the
    first sphere with the smallest signed distance)."""
    centers, radii = g.world_sphere_centers.tolist(), g.sphere_radii.tolist()
    position, half_extents, rot = spatial.obb_entries(target)
    return pair_per_axis(spatial.sphere_pass(centers, radii, position, half_extents, rot),
                         centers, radii, position)


def pair_per_axis(found: spatial.SpherePass, centers, radii, box_position) -> np.ndarray:
    """``closest_pair_per_axis`` from the ``sphere_pass`` of the same
    spheres (float sequences) against a box centered at ``box_position``."""
    best = found.nearest
    radius = radii[best]
    cx, cy, cz = centers[best]
    qx, qy, qz = found.nearest_point
    ux, uy, uz = qx - cx, qy - cy, qz - cz
    d = math.sqrt(ux * ux + uy * uy + uz * uz)
    if d <= 1e-12:
        ux, uy, uz = box_position[0] - cx, box_position[1] - cy, box_position[2] - cz
        d = math.sqrt(ux * ux + uy * uy + uz * uz)
        if d <= 1e-12:
            ux, uy, uz, d = 1.0, 0.0, 0.0, 1.0
    return np.array([abs(cx + radius * (ux / d) - qx),
                     abs(cy + radius * (uy / d) - qy),
                     abs(cz + radius * (uz / d) - qz)])
