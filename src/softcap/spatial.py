"""Quaternion, pose and proximity primitives shared by the whole simulator.

Conventions fixed here and relied on everywhere else:

* quaternions are Hamilton, stored scalar-first as ``[w, x, y, z]`` and
  canonicalized to ``w >= 0`` whenever they pass through normalization;
* Euler angles are intrinsic XYZ (roll about x, then pitch about the new y,
  then yaw about the newest z); pitch is extracted into ``[-pi/2, pi/2]``;
* at the pitch singularity roll is reported as 0 and the residual twist
  folds into yaw, which keeps the extraction deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

_QUAT_EPS = 1e-12
# cos(pitch) below which the XYZ extraction switches to the singular branch
_GIMBAL_SIN_LIMIT = 1.0 - 1e-12
# The signs of a box's 8 corners in its own frame, x slowest and z fastest.
_CORNER_SIGNS = np.array([[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)])
_CORNER_SIGNS.flags.writeable = False


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q) -> np.ndarray:
    """Unit quaternion with the sign canonicalized to w >= 0."""
    return np.array(unit_quat_entries(np.asarray(q, dtype=float).reshape(4)))


def unit_quat_entries(q: np.ndarray) -> Tuple[float, float, float, float]:
    """``quat_normalize`` of a float array of shape (4,), as 4 floats."""
    n = math.sqrt(q.dot(q))  # what np.linalg.norm computes, without its overhead
    if n < _QUAT_EPS:
        raise ValueError("cannot normalize a near-zero quaternion")
    w, x, y, z = q.tolist()
    w, x, y, z = w / n, x / n, y / n, z / n
    if w < 0.0:
        return -w, -x, -y, -z
    return w, x, y, z


def quat_product(a, b) -> np.ndarray:
    """Raw Hamilton product, no normalization."""
    aw, ax, ay, az = np.asarray(a, dtype=float).tolist()
    bw, bx, by, bz = np.asarray(b, dtype=float).tolist()
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_mul(a, b) -> np.ndarray:
    """Hamilton product renormalized and canonicalized."""
    return quat_normalize(quat_product(a, b))


def quat_conj(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector v by unit quaternion q (q v q*)."""
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    u = q[1:]
    t = 2.0 * np.cross(u, v)
    return v + q[0] * t + np.cross(u, t)


def quat_to_matrix(q) -> np.ndarray:
    return np.array(rotation_entries(*np.asarray(q, dtype=float).tolist())).reshape(3, 3)


def rotation_entries(w: float, x: float, y: float, z: float) -> Tuple[float, ...]:
    """The 9 entries of ``quat_to_matrix`` in row-major order, as floats."""
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return (1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy),
            2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx),
            2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy))


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = float(np.linalg.norm(axis))
    if n < _QUAT_EPS:
        raise ValueError("rotation axis must be nonzero")
    half = 0.5 * float(angle)
    q = np.empty(4)
    q[0] = math.cos(half)
    q[1:] = math.sin(half) / n * axis
    return quat_normalize(q)


def euler_xyz_to_quat(e) -> np.ndarray:
    """Quaternion of the intrinsic XYZ rotation (roll, pitch, yaw)."""
    roll, pitch, yaw = np.asarray(e, dtype=float)
    qx = quat_from_axis_angle((1.0, 0.0, 0.0), roll)
    qy = quat_from_axis_angle((0.0, 1.0, 0.0), pitch)
    qz = quat_from_axis_angle((0.0, 0.0, 1.0), yaw)
    return quat_mul(quat_mul(qx, qy), qz)


def quat_to_euler_xyz(q) -> np.ndarray:
    """Intrinsic XYZ angles (roll, pitch, yaw) of a unit quaternion.

    Goes through the rotation matrix, so the result is invariant under a
    sign flip of q.  At |pitch| = pi/2 the convention roll = 0 applies.
    """
    m00, m01, m02, m10, m11, m12, _, _, m22 = rotation_entries(
        *unit_quat_entries(np.asarray(q, dtype=float).reshape(4)))
    sp = min(max(m02, -1.0), 1.0)
    if abs(sp) < _GIMBAL_SIN_LIMIT:
        pitch = math.asin(sp)
        roll = math.atan2(-m12, m22)
        yaw = math.atan2(-m01, m00)
    else:
        pitch = math.copysign(0.5 * math.pi, sp)
        roll = 0.0
        yaw = math.atan2(m10, m11)
    return np.array([roll, pitch, yaw])


def orientation_error(q_a, q_b) -> np.ndarray:
    """Euler-XYZ extraction of the rotation taking frame a onto frame b.

    Zero iff q_a and q_b describe the same rotation; unaffected by the
    sign of either argument.
    """
    return quat_to_euler_xyz(quat_mul(quat_conj(q_a), q_b))


@dataclass
class Pose:
    """Rigid transform: position in meters plus an orientation quaternion,
    which must be unit with w >= 0, as ``quat_normalize``, ``quat_mul``,
    ``euler_xyz_to_quat`` and ``quat_identity`` give it.  The constructor
    only converts both to float arrays."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=quat_identity)

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)
        self.orientation = np.asarray(self.orientation, dtype=float)

    def transform_point(self, p_local) -> np.ndarray:
        return self.position + quat_rotate(self.orientation, p_local)


@dataclass
class ConvexRegion:
    """Bounded convex set as half-spaces in a body frame.

    A point p (body frame) is inside iff normals @ p <= offsets holds for
    every row.  Normals are unit length and point outward.  Boundedness is
    guaranteed by the ``from_points`` builder; hand-built regions are the
    caller's responsibility.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        self.offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        if self.normals.shape[0] != self.offsets.shape[0]:
            raise ValueError("normals and offsets disagree in length")
        if self.normals.shape[0] < 4:
            raise ValueError("a bounded region needs at least 4 half-spaces")
        lengths = np.linalg.norm(self.normals, axis=1)
        if np.any(np.abs(lengths - 1.0) > 1e-9):
            raise ValueError("half-space normals must be unit length")

    @classmethod
    def from_points(cls, points) -> "ConvexRegion":
        """Half-space representation of the convex hull of a point cloud.

        Every point triple spans a plane; a plane with all points on one
        side (within 1e-9) bounds the hull, with its normal turned outward.
        This costs O(n^4), which suits the small clouds it is built for.  A
        flat or smaller cloud fails the 4 half-space check."""
        points = np.asarray(points, dtype=float).reshape(-1, 3)
        triples = np.array(list(itertools.combinations(range(len(points)), 3)), dtype=np.intp)
        a, b, c = points[triples.reshape(-1, 3).T]
        n = np.cross(b - a, c - a)
        length = np.linalg.norm(n, axis=1)
        spans = length > 0.0  # a collinear triple spans no plane
        n = n[spans] / length[spans, None]
        d = (n * a[spans]).sum(axis=1)
        side = points @ n.T - d
        outward, inward = (side <= 1e-9).all(axis=0), (side >= -1e-9).all(axis=0)
        bounds = outward | inward
        sign = np.where(outward, 1.0, -1.0)[bounds]
        # The equations n.x + b <= 0 inside, b = -d; coplanar triples repeat
        # the same plane, so collapse near-duplicates.
        eq = np.unique(np.round(np.column_stack([n[bounds], -d[bounds]]) * sign[:, None], 9), axis=0)
        normals = eq[:, :3]
        offsets = -eq[:, 3]
        lengths = np.linalg.norm(normals, axis=1)
        return cls(normals / lengths[:, None], offsets / lengths)


def contains_point(region: ConvexRegion, region_pose: Pose, p_world, margin: float = 0.0) -> bool:
    """True iff the world point is inside the region shrunk by margin."""
    return bool(contains_points(region, region_pose, p_world, margin)[0])


def contains_points(region: ConvexRegion, region_pose: Pose, points_world, margin: float = 0.0) -> np.ndarray:
    """Per point of an (n, 3) array of world points, whether it is inside
    the region shrunk by margin."""
    if margin < 0.0:
        raise ValueError("margin must be >= 0")
    pts = np.asarray(points_world, dtype=float).reshape(-1, 3)
    rot = quat_to_matrix(region_pose.orientation)
    local = (pts - region_pose.position) @ rot
    return np.all(local @ region.normals.T <= region.offsets - margin, axis=1)


@dataclass
class Obb:
    """Oriented box: a pose plus strictly positive half extents (meters),
    which ``EnvConfig`` checks where they enter the program."""

    pose: Pose
    half_extents: np.ndarray

    def __post_init__(self):
        self.half_extents = np.asarray(self.half_extents, dtype=float)

    def corners(self) -> np.ndarray:
        """The 8 world-frame corner points, shape (8, 3)."""
        return box_corners(self.pose.position, quat_to_matrix(self.pose.orientation), self.half_extents)


def box_corners(position, rot: np.ndarray, half_extents) -> np.ndarray:
    """The 8 world-frame corners, shape (8, 3), of the box with this center,
    rotation matrix and half extents."""
    return position + (_CORNER_SIGNS * np.asarray(half_extents, dtype=float)) @ rot.T


class Contact(NamedTuple):
    """One contact: world point, unit normal from gripper into target, depth >= 0.

    Built only by the proximity queries below, which guarantee the unit
    normal and the nonnegative depth.
    """

    point: np.ndarray
    normal: np.ndarray
    depth: float


@dataclass
class SphereQuery:
    closest_point: np.ndarray
    signed_distance: float
    contact: Optional[Contact]


class SpherePass(NamedTuple):
    """What ``sphere_pass`` finds for n spheres and one box: the signed
    distance of each sphere, one contact per overlapping sphere in sphere
    order, and the first sphere with the smallest signed distance
    (``nearest``) with its closest box point (``nearest_point``, world
    frame; ``None`` for no spheres)."""

    signed: List[float]
    contacts: List[Contact]
    nearest: int
    nearest_point: Optional[Tuple[float, float, float]]


def obb_entries(box: Obb):
    """A box's center, half extents and rotation entries as float tuples, the
    box arguments of ``sphere_pass``."""
    return (box.pose.position.tolist(), box.half_extents.tolist(),
            rotation_entries(*box.pose.orientation.tolist()))


def sphere_pass(centers, radii, position, half_extents, rot) -> SpherePass:
    """Proximity of n spheres to one oriented box, on floats.

    ``centers`` holds n (x, y, z) world points and ``radii`` n positive
    radii; the box is its center, half extents and the 9 row-major entries
    of its rotation matrix (``rotation_entries``).  Each sphere is measured
    as ``sphere_obb_query`` documents: the closest point is the clamp of
    the center into the box, the signed distance is -radius for a center
    inside, and the contact normal points from the sphere into the box.
    Each rotated component is ((a0 + a1) + a2), with no BLAS product (whose
    summation order and fused multiply-adds vary), so the public queries
    built on this pass agree bit for bit.  Contact geometry is computed for
    the overlapping spheres only.
    """
    px, py, pz = position
    hx, hy, hz = half_extents
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = rot
    signed, contacts = [], []
    nearest, nearest_signed, nearest_clamp = 0, math.inf, None
    for i, ((cx, cy, cz), radius) in enumerate(zip(centers, radii)):
        dx, dy, dz = cx - px, cy - py, cz - pz
        lx = dx * r00 + dy * r10 + dz * r20
        ly = dx * r01 + dy * r11 + dz * r21
        lz = dx * r02 + dy * r12 + dz * r22
        # min(max(l, -h), h) per axis, without the calls.
        kx = hx if lx > hx else -hx if lx < -hx else lx
        ky = hy if ly > hy else -hy if ly < -hy else ly
        kz = hz if lz > hz else -hz if lz < -hz else lz
        ex, ey, ez = lx - kx, ly - ky, lz - kz
        dist = math.sqrt(ex * ex + ey * ey + ez * ez)
        s = dist - radius if dist > _QUAT_EPS else -radius
        signed.append(s)
        if s < nearest_signed or nearest_clamp is None:
            nearest, nearest_signed, nearest_clamp = i, s, (kx, ky, kz)
        if s < 0.0:
            if dist > _QUAT_EPS:
                nx, ny, nz = -ex / dist, -ey / dist, -ez / dist
            else:
                # Center inside the box (or exactly on its surface).
                r = math.sqrt(lx * lx + ly * ly + lz * lz)
                if r > _QUAT_EPS:
                    nx, ny, nz = -lx / r, -ly / r, -lz / r
                else:
                    nx, ny, nz = -1.0, 0.0, 0.0
            point = np.array([
                px + (r00 * kx + r01 * ky + r02 * kz),
                py + (r10 * kx + r11 * ky + r12 * kz),
                pz + (r20 * kx + r21 * ky + r22 * kz),
            ])
            normal = np.array([
                r00 * nx + r01 * ny + r02 * nz,
                r10 * nx + r11 * ny + r12 * nz,
                r20 * nx + r21 * ny + r22 * nz,
            ])
            contacts.append(Contact(point, normal, -s))
    nearest_point = None
    if nearest_clamp is not None:
        kx, ky, kz = nearest_clamp
        nearest_point = (px + (r00 * kx + r01 * ky + r02 * kz),
                         py + (r10 * kx + r11 * ky + r12 * kz),
                         pz + (r20 * kx + r21 * ky + r22 * kz))
    return SpherePass(signed, contacts, nearest, nearest_point)


def sphere_obb_query(center, radius: float, box: Obb) -> SphereQuery:
    """Proximity of a sphere to an oriented box.

    The closest point is the clamp of the center into the box, so for a
    center inside the box the signed distance is -radius by convention
    (depth saturates at the sphere radius).  The contact normal points
    from the sphere side into the box: toward the clamped surface point,
    or toward the box center when the sphere center is inside.
    """
    if radius <= 0.0:
        raise ValueError("sphere radius must be > 0")
    found = sphere_pass([np.asarray(center, dtype=float).reshape(3).tolist()], [radius], *obb_entries(box))
    return SphereQuery(closest_point=np.array(found.nearest_point), signed_distance=found.signed[0],
                       contact=found.contacts[0] if found.contacts else None)

