import math

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from softcap import spatial
from softcap.spatial import (
    ConvexRegion,
    Obb,
    Pose,
    contains_point,
    euler_xyz_to_quat,
    obb_entries,
    orientation_error,
    quat_conj,
    quat_identity,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_to_euler_xyz,
    quat_to_matrix,
    sphere_obb_query,
    sphere_pass,
)

from conftest import hull_contains, random_quat, rot_x, rot_z


# ---------------------------------------------------------------- quaternions
def test_quat_mul_identity():
    q = quat_normalize([0.3, 0.2, -0.4, 0.7])
    assert np.allclose(quat_mul(quat_identity(), q), q, atol=1e-12)
    assert np.allclose(quat_mul(q, quat_identity()), q, atol=1e-12)


def test_quat_mul_inverse_gives_identity():
    q = quat_normalize([0.3, 0.2, -0.4, 0.7])
    assert np.allclose(quat_mul(q, quat_conj(q)), quat_identity(), atol=1e-12)


def test_quat_mul_matches_rotation_matrix_composition():
    a = spatial.quat_from_axis_angle((0, 0, 1), math.pi / 2)
    b = spatial.quat_from_axis_angle((0, 0, 1), math.pi / 2)
    composed = quat_mul(a, b)
    # Oracle: compose the matrices, expect a 180 degree turn about z.
    expected = rot_z(math.pi / 2) @ rot_z(math.pi / 2)
    assert np.allclose(quat_to_matrix(composed), expected, atol=1e-12)


def test_quat_mul_random_matches_scipy(rng):
    for _ in range(200):
        a, b = random_quat(rng), random_quat(rng)
        got = quat_to_matrix(quat_mul(a, b))
        ra = Rotation.from_quat(np.roll(a, -1))
        rb = Rotation.from_quat(np.roll(b, -1))
        assert np.allclose(got, (ra * rb).as_matrix(), atol=1e-10)


def test_quat_norm_preserved_through_long_composition(rng):
    q = quat_identity()
    for _ in range(500):
        q = quat_mul(q, random_quat(rng))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-9
        assert q[0] >= 0.0


def test_quat_rotate_identity_and_axis():
    v = np.array([1.0, 2.0, 3.0])
    assert np.allclose(quat_rotate(quat_identity(), v), v, atol=1e-12)
    q90z = spatial.quat_from_axis_angle((0, 0, 1), math.pi / 2)
    assert np.allclose(quat_rotate(q90z, [1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_quat_rotate_matches_matrix_product(rng):
    for _ in range(200):
        q, v = random_quat(rng), rng.standard_normal(3)
        expected = Rotation.from_quat(np.roll(q, -1)).as_matrix() @ v
        assert np.allclose(quat_rotate(q, v), expected, atol=1e-10)


def test_quat_rotate_is_an_isometry(rng):
    for _ in range(200):
        q, v = random_quat(rng), rng.standard_normal(3)
        assert abs(np.linalg.norm(quat_rotate(q, v)) - np.linalg.norm(v)) < 1e-9


# ---------------------------------------------------------------- euler
def test_euler_identity():
    assert np.allclose(quat_to_euler_xyz(quat_identity()), [0.0, 0.0, 0.0], atol=1e-12)


def test_euler_round_trip_simple():
    e = np.array([0.1, 0.2, 0.3])
    assert np.allclose(quat_to_euler_xyz(euler_xyz_to_quat(e)), e, atol=1e-9)


def test_euler_quarter_turn_about_x():
    q = spatial.quat_from_axis_angle((1, 0, 0), math.pi / 2)
    assert np.allclose(quat_to_euler_xyz(q), [math.pi / 2, 0.0, 0.0], atol=1e-9)
    assert np.allclose(quat_to_matrix(q), rot_x(math.pi / 2), atol=1e-12)


def test_euler_round_trip_random_away_from_lock(rng):
    count = 0
    while count < 300:
        e = rng.uniform([-math.pi, -math.pi / 2, -math.pi], [math.pi, math.pi / 2, math.pi])
        if abs(e[1]) > math.pi / 2 - 1e-3:
            continue
        count += 1
        back = quat_to_euler_xyz(euler_xyz_to_quat(e))
        # Roll/yaw wrap at +-pi; compare through the quaternions.
        q1, q2 = euler_xyz_to_quat(e), euler_xyz_to_quat(back)
        assert min(np.linalg.norm(q1 - q2), np.linalg.norm(q1 + q2)) < 1e-9


def test_euler_convention_matches_scipy_intrinsic_xyz(rng):
    for _ in range(200):
        q = random_quat(rng)
        if abs(quat_to_matrix(q)[0, 2]) > 1.0 - 1e-6:
            continue
        expected = Rotation.from_quat(np.roll(q, -1)).as_euler("XYZ")
        assert np.allclose(quat_to_euler_xyz(q), expected, atol=1e-9)


def test_euler_gimbal_lock_uses_zero_roll():
    for roll in (0.7, -0.3):
        q = euler_xyz_to_quat([roll, math.pi / 2, 0.2])
        e = quat_to_euler_xyz(q)
        assert e[0] == 0.0
        assert abs(e[1] - math.pi / 2) < 1e-9
        # The whole rotation must still round trip.
        q2 = euler_xyz_to_quat(e)
        assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9


# ---------------------------------------------------------------- orientation error
def test_orientation_error_zero_for_equal():
    q = quat_normalize([0.9, 0.1, -0.2, 0.3])
    assert np.allclose(orientation_error(q, q), np.zeros(3), atol=1e-12)


def test_orientation_error_single_axis():
    q_b = spatial.quat_from_axis_angle((0, 1, 0), math.pi / 6)
    assert np.allclose(orientation_error(quat_identity(), q_b), [0.0, math.pi / 6, 0.0], atol=1e-9)


def test_orientation_error_matches_relative_matrix_extraction(rng):
    for _ in range(200):
        qa, qb = random_quat(rng), random_quat(rng)
        rel = Rotation.from_quat(np.roll(qa, -1)).inv() * Rotation.from_quat(np.roll(qb, -1))
        if abs(rel.as_matrix()[0, 2]) > 1.0 - 1e-6:
            continue
        assert np.allclose(orientation_error(qa, qb), rel.as_euler("XYZ"), atol=1e-9)


def test_orientation_error_sign_invariance(rng):
    for _ in range(100):
        qa, qb = random_quat(rng), random_quat(rng)
        base = orientation_error(qa, qb)
        assert np.allclose(orientation_error(-qa, qb), base, atol=1e-12)
        assert np.allclose(orientation_error(qa, -qb), base, atol=1e-12)
        assert np.allclose(orientation_error(-qa, -qb), base, atol=1e-12)


# ---------------------------------------------------------------- containment
def unit_cube_region():
    normals = np.vstack([np.eye(3), -np.eye(3)])
    return ConvexRegion(normals, 0.5 * np.ones(6))


def test_contains_point_cube_cases():
    region = unit_cube_region()
    pose = Pose()
    assert contains_point(region, pose, [0.0, 0.0, 0.0])
    assert not contains_point(region, pose, [2.0, 0.0, 0.0])


def test_contains_point_margin_monotone(rng):
    region = unit_cube_region()
    pose = Pose()
    for _ in range(200):
        p = rng.uniform(-0.8, 0.8, 3)
        m = rng.uniform(0.0, 0.4)
        if contains_point(region, pose, p, m):
            assert contains_point(region, pose, p, m * rng.uniform(0.0, 1.0))


def test_contains_point_respects_region_pose():
    region = unit_cube_region()
    pose = Pose([1.0, 0.0, 0.0], spatial.quat_from_axis_angle((0, 0, 1), math.pi / 4))
    assert contains_point(region, pose, [1.0, 0.0, 0.0])
    # The rotated cube reaches sqrt(2)/2 along world x but only 0.5 along
    # its own face normal, which now points along the world diagonal.
    assert contains_point(region, pose, [1.65, 0.0, 0.0])
    assert not contains_point(region, pose, [1.75, 0.0, 0.0])
    diag = 1.0 / math.sqrt(2.0)
    assert contains_point(region, pose, [1.0 + 0.45 * diag, 0.45 * diag, 0.0])
    assert not contains_point(region, pose, [1.0 + 0.55 * diag, 0.55 * diag, 0.0])


def test_contains_point_agrees_with_tessellation_oracle(rng):
    agreements = 0
    for _ in range(1000):
        points = rng.uniform(-1.0, 1.0, size=(rng.integers(6, 16), 3))
        try:
            region = ConvexRegion.from_points(points)
        except ValueError:
            continue  # degenerate cloud: fewer than 4 bounding planes
        pose = Pose(rng.uniform(-0.5, 0.5, 3), random_quat(rng))
        local = rng.uniform(-1.2, 1.2, 3)
        # Exclusion band around every face, per the oracle's terms.
        if np.min(region.offsets - region.normals @ local) < 1e-6 and np.max(
            region.normals @ local - region.offsets
        ) < 1e-6:
            continue
        world = pose.transform_point(local)
        assert contains_point(region, pose, world) == hull_contains(points, local)
        agreements += 1
    assert agreements >= 900


def test_convex_region_validation():
    with pytest.raises(ValueError):
        ConvexRegion(np.eye(3), np.ones(3))  # too few half-spaces
    with pytest.raises(ValueError):
        ConvexRegion(np.vstack([2.0 * np.eye(3), -np.eye(3)]), np.ones(6))  # not unit


# ---------------------------------------------------------------- sphere vs box
def test_sphere_obb_face_case():
    box = Obb(Pose(), [0.5, 0.5, 0.5])
    q = sphere_obb_query([2.0, 0.0, 0.0], 0.25, box)
    assert np.allclose(q.closest_point, [0.5, 0.0, 0.0], atol=1e-12)
    assert abs(q.signed_distance - (1.5 - 0.25)) < 1e-12
    assert q.contact is None


def test_sphere_obb_center_on_surface():
    box = Obb(Pose(), [0.5, 0.5, 0.5])
    q = sphere_obb_query([0.5, 0.0, 0.0], 0.1, box)
    assert abs(q.signed_distance + 0.1) < 1e-12
    assert q.contact is not None
    assert abs(q.contact.depth - 0.1) < 1e-12


def test_sphere_obb_contact_normal_points_into_box():
    box = Obb(Pose(), [0.5, 0.5, 0.5])
    q = sphere_obb_query([0.52, 0.0, 0.0], 0.1, box)
    assert q.contact is not None
    assert np.allclose(q.contact.normal, [-1.0, 0.0, 0.0], atol=1e-12)
    assert abs(q.contact.depth - 0.08) < 1e-12


def test_sphere_obb_interior_center_convention():
    box = Obb(Pose(), [0.5, 0.5, 0.5])
    q = sphere_obb_query([0.2, 0.0, 0.0], 0.1, box)
    # Interior clamp: the closest point is the center itself and depth
    # saturates at the radius; the normal aims at the box center.
    assert np.allclose(q.closest_point, [0.2, 0.0, 0.0], atol=1e-12)
    assert abs(q.signed_distance + 0.1) < 1e-12
    assert np.allclose(q.contact.normal, [-1.0, 0.0, 0.0], atol=1e-12)


def _sample_box_surface(rng, box: Obb, n: int) -> np.ndarray:
    h = box.half_extents
    areas = np.array([h[1] * h[2], h[0] * h[2], h[0] * h[1]])
    areas = np.repeat(areas, 2)
    face = rng.choice(6, size=n, p=areas / areas.sum())
    pts = rng.uniform(-h, h, size=(n, 3))
    axis = face // 2
    sign = np.where(face % 2 == 0, 1.0, -1.0)
    pts[np.arange(n), axis] = sign * h[axis]
    rot = quat_to_matrix(box.pose.orientation)
    return box.pose.position + pts @ rot.T


def test_sphere_obb_distance_matches_surface_sampling(rng):
    for _ in range(10):
        box = Obb(Pose(rng.uniform(-1, 1, 3), random_quat(rng)), rng.uniform(0.2, 0.8, 3))
        center = rng.uniform(-2.0, 2.0, 3)
        radius = rng.uniform(0.05, 0.5)
        rot = quat_to_matrix(box.pose.orientation)
        local = rot.T @ (center - box.pose.position)
        if np.all(np.abs(local) <= box.half_extents):
            continue  # interior centers use the documented clamp convention
        samples = _sample_box_surface(rng, box, 1_000_000)
        brute = float(np.min(np.linalg.norm(samples - center, axis=1))) - radius
        got = sphere_obb_query(center, radius, box).signed_distance
        assert abs(got - brute) < 1e-3


def test_sphere_obb_distance_is_lipschitz(rng):
    box = Obb(Pose(rng.uniform(-1, 1, 3), random_quat(rng)), rng.uniform(0.2, 0.8, 3))
    for _ in range(500):
        c = rng.uniform(-1.5, 1.5, 3)
        delta = rng.standard_normal(3)
        delta *= rng.uniform(0.0, 0.05) / np.linalg.norm(delta)
        d1 = sphere_obb_query(c, 0.2, box).signed_distance
        d2 = sphere_obb_query(c + delta, 0.2, box).signed_distance
        assert abs(d1 - d2) <= np.linalg.norm(delta) + 1e-12


def _reference_sphere_obb_query(center, radius, box):
    # The scalar query written out on its own: (closest point, signed
    # distance, contact point, normal and depth or None).
    cx, cy, cz = center
    px, py, pz = box.pose.position
    hx, hy, hz = box.half_extents
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = quat_to_matrix(box.pose.orientation).tolist()
    dx, dy, dz = cx - px, cy - py, cz - pz
    lx = dx * r00 + dy * r10 + dz * r20
    ly = dx * r01 + dy * r11 + dz * r21
    lz = dx * r02 + dy * r12 + dz * r22
    kx, ky, kz = min(max(lx, -hx), hx), min(max(ly, -hy), hy), min(max(lz, -hz), hz)
    ex, ey, ez = lx - kx, ly - ky, lz - kz
    dist = math.sqrt(ex * ex + ey * ey + ez * ez)
    if dist > 1e-12:
        signed = dist - radius
        nx, ny, nz = -ex / dist, -ey / dist, -ez / dist
    else:
        signed = -radius
        r = math.sqrt(lx * lx + ly * ly + lz * lz)
        nx, ny, nz = (-lx / r, -ly / r, -lz / r) if r > 1e-12 else (-1.0, 0.0, 0.0)
    closest = [px + (r00 * kx + r01 * ky + r02 * kz), py + (r10 * kx + r11 * ky + r12 * kz),
               pz + (r20 * kx + r21 * ky + r22 * kz)]
    normal = [r00 * nx + r01 * ny + r02 * nz, r10 * nx + r11 * ny + r12 * nz,
              r20 * nx + r21 * ny + r22 * nz]
    return closest, signed, (closest, normal, -signed) if signed < 0.0 else None


def _reference_spheres_signed(centers, radii, box):
    # The same distances from whole-array numpy operations.
    rot = quat_to_matrix(box.pose.orientation)
    local = ((centers - box.pose.position)[:, :, None] * rot).sum(axis=1)
    delta = local - np.minimum(np.maximum(local, -box.half_extents), box.half_extents)
    dist = np.sqrt((delta * delta).sum(axis=1))
    return np.where(dist > 1e-12, dist - radii, -radii)


def test_sphere_pass_equals_scalar_query(rng):
    # Rotated boxes with centers spread inside and outside, plus axis-aligned
    # boxes with dyadic coordinates, so some centers sit exactly on a face,
    # an edge or a corner, or at the box center.  The whole pass and the
    # scalar query equal the references above bit for bit.
    cases = []
    for _ in range(40):
        box = Obb(Pose(rng.uniform(-1, 1, 3), random_quat(rng)), rng.uniform(0.05, 0.5, 3))
        rot = quat_to_matrix(box.pose.orientation)
        local = rng.uniform(-2.0, 2.0, (12, 3)) * box.half_extents
        cases.append((box, box.pose.position + local @ rot.T, rng.uniform(0.01, 0.3, 12)))
    box = Obb(Pose([0.25, -0.5, 0.125]), [0.5, 0.25, 0.125])
    h = box.half_extents
    local = np.array([[1, 0, 0], [-1, 0.5, 0], [0, 1, -1], [1, -1, 1],
                      [0, 0, 0], [0.5, 0.5, 0.5], [2, 0, 0], [0, -3, 0.25]]) * h
    cases.append((box, box.pose.position + local, np.full(len(local), 0.0625)))

    inside = surface = 0
    for box, centers, radii in cases:
        signed = np.array(sphere_pass(centers.tolist(), radii.tolist(), *obb_entries(box)).signed)
        assert signed.shape == (len(radii),)
        assert signed.tobytes() == _reference_spheres_signed(centers, radii, box).tobytes()
        for i, (center, radius) in enumerate(zip(centers, radii)):
            q = sphere_obb_query(center, float(radius), box)
            closest, distance, contact = _reference_sphere_obb_query(center.tolist(), float(radius), box)
            assert signed[i] == q.signed_distance == distance
            assert q.closest_point.tolist() == closest
            assert (q.contact is None) == (contact is None)
            if contact is not None:
                assert [q.contact.point.tolist(), q.contact.normal.tolist(), q.contact.depth] == list(contact)
            local = quat_to_matrix(box.pose.orientation).T @ (center - box.pose.position)
            inside += bool(np.all(np.abs(local) < box.half_extents))
            surface += bool(np.all(np.abs(local) <= box.half_extents)
                            and np.any(np.abs(local) == box.half_extents))
    assert inside >= 20 and surface >= 4
    with pytest.raises(ValueError):
        sphere_obb_query(np.zeros(3), 0.0, box)


def test_obb_corners():
    box = Obb(Pose([1.0, 0.0, 0.0]), [0.5, 0.4, 0.3])
    corners = box.corners()
    assert corners.shape == (8, 3)
    assert np.allclose(corners.mean(axis=0), [1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(corners - [1.0, 0.0, 0.0]).max(axis=0), [0.5, 0.4, 0.3])
