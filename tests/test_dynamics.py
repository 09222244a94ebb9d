import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from softcap import dynamics, spatial
from softcap.dynamics import (
    ActionLimits,
    GripperBody,
    RigidBody,
    apply_gripper_action,
    box_inertia_diag,
    build_open_gripper,
    detect_contacts,
    resolve_contacts,
    step_free_body,
)
from softcap.spatial import Obb, Pose, quat_identity, sphere_obb_query

from conftest import random_quat

DT = 1.0 / 240.0


def make_body(pose=None, lin_vel=(0, 0, 0), ang_vel=(0, 0, 0), mass=1.0, inertia=(1.0, 2.0, 3.0)):
    return RigidBody(
        pose=pose if pose is not None else Pose(),
        lin_vel=np.asarray(lin_vel, dtype=float),
        ang_vel=np.asarray(ang_vel, dtype=float),
        mass=mass,
        inertia_diag=np.asarray(inertia, dtype=float),
    )


# ---------------------------------------------------------------- free body
def test_step_free_body_pure_translation():
    body = make_body(lin_vel=(0.3, -0.1, 0.2))
    out = step_free_body(body, 0.5)
    assert np.allclose(out.pose.position, [0.15, -0.05, 0.1], atol=1e-15)
    assert np.allclose(out.pose.orientation, quat_identity(), atol=1e-15)
    assert np.allclose(out.lin_vel, body.lin_vel)


def test_step_free_body_spherical_inertia_keeps_omega():
    body = make_body(ang_vel=(0.4, -0.7, 0.2), inertia=(2.0, 2.0, 2.0))
    for _ in range(200):
        body = step_free_body(body, DT)
    assert np.allclose(body.ang_vel, [0.4, -0.7, 0.2], atol=1e-12)


def test_step_free_body_conserves_momentum_and_energy():
    # Conservation oracle computed from the integrated state itself.
    body = make_body(ang_vel=(0.1, 1.0, 0.1), inertia=(1.0, 2.0, 3.0), lin_vel=(0.01, 0, 0))
    l0 = body.angular_momentum_world()
    e0 = body.rotational_energy()
    p0 = body.mass * body.lin_vel
    for _ in range(500):
        body = step_free_body(body, DT)
    l1 = body.angular_momentum_world()
    e1 = body.rotational_energy()
    assert np.linalg.norm(l1 - l0) / np.linalg.norm(l0) < 1e-4
    assert abs(e1 - e0) / abs(e0) < 1e-4
    assert np.array_equal(body.mass * body.lin_vel, p0)


def test_step_free_body_tumbling_actually_rotates():
    body = make_body(ang_vel=(0.0, 1.0, 0.0))
    out = body
    for _ in range(240):
        out = step_free_body(out, DT)
    # One second at 1 rad/s about y.
    expected = spatial.quat_from_axis_angle((0, 1, 0), 1.0)
    assert min(
        np.linalg.norm(out.pose.orientation - expected),
        np.linalg.norm(out.pose.orientation + expected),
    ) < 1e-6


def test_step_free_body_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_free_body(make_body(), 0.0)


def test_box_inertia_formula():
    inertia = box_inertia_diag(12.0, (0.5, 1.0, 1.5))
    # Full sides 1, 2, 3.
    assert np.allclose(inertia, [4.0 + 9.0, 1.0 + 9.0, 1.0 + 4.0])


# ---------------------------------------------------------------- gripper action
LIMITS = ActionLimits(max_translation_step=0.01, max_rotation_step=0.035)


def test_apply_zero_action_is_identity():
    g = build_open_gripper()
    out = apply_gripper_action(g, np.zeros(6), LIMITS, 1 / 60)
    assert np.allclose(out.pose.position, g.pose.position)
    assert np.allclose(out.pose.orientation, g.pose.orientation)
    assert np.allclose(out.lin_vel, 0.0)
    assert np.allclose(out.ang_vel, 0.0)


def test_apply_translation_along_x():
    g = build_open_gripper()
    dt = 1 / 60
    out = apply_gripper_action(g, [1, 0, 0, 0, 0, 0], LIMITS, dt)
    assert np.allclose(out.pose.position, [0.01, 0.0, 0.0], atol=1e-15)
    assert np.allclose(out.lin_vel, [0.01 / dt, 0.0, 0.0], atol=1e-12)


def test_apply_translation_respects_body_frame():
    pose = Pose(orientation=spatial.quat_from_axis_angle((0, 0, 1), math.pi / 2))
    g = build_open_gripper(pose)
    out = apply_gripper_action(g, [1, 0, 0, 0, 0, 0], LIMITS, 1 / 60)
    # Body +x maps to world +y after the 90 degree yaw.
    assert np.allclose(out.pose.position, [0.0, 0.01, 0.0], atol=1e-12)


def test_apply_rotation_composes_on_body_side():
    g = build_open_gripper()
    out = apply_gripper_action(g, [0, 0, 0, 0, 0, 1], LIMITS, 1 / 60)
    expected = spatial.quat_from_axis_angle((0, 0, 1), 0.035)
    assert np.allclose(out.pose.orientation, expected, atol=1e-12)
    assert np.allclose(out.ang_vel, [0.0, 0.0, 0.035 * 60], atol=1e-9)


def test_apply_action_matches_composed_rotations(rng):
    # Reference: the step rotation composed from the Euler-XYZ quaternion,
    # the rotation vector from its axis and angle, both rotated to world.
    limits = ActionLimits(max_translation_step=0.01, max_rotation_step=0.5)
    dt = 1 / 60
    for _ in range(50):
        g = build_open_gripper(Pose(rng.uniform(-1, 1, 3), random_quat(rng)))
        action = rng.uniform(-1, 1, 6)
        out = apply_gripper_action(g, action, limits, dt)
        q = g.pose.orientation
        dq = spatial.euler_xyz_to_quat(action[3:] * limits.max_rotation_step)
        angle = 2.0 * math.atan2(np.linalg.norm(dq[1:]), dq[0])
        rotvec = dq[1:] / np.linalg.norm(dq[1:]) * angle
        dp = spatial.quat_rotate(q, action[:3] * limits.max_translation_step)
        assert np.allclose(out.pose.position, g.pose.position + dp, rtol=0, atol=1e-15)
        assert np.allclose(out.pose.orientation, spatial.quat_mul(q, dq), rtol=0, atol=1e-15)
        assert np.allclose(out.lin_vel, dp / dt, rtol=0, atol=1e-13)
        assert np.allclose(out.ang_vel, spatial.quat_rotate(q, rotvec) / dt, rtol=0, atol=1e-12)


def test_apply_action_out_of_range_rejected():
    g = build_open_gripper()
    with pytest.raises(ValueError):
        apply_gripper_action(g, [1.2, 0, 0, 0, 0, 0], LIMITS, 1 / 60)


# ---------------------------------------------------------------- contacts
def one_sphere_gripper(center_world, radius):
    return GripperBody(
        pose=Pose(np.asarray(center_world, dtype=float)),
        sphere_centers=np.zeros((1, 3)),
        sphere_radii=np.array([radius]),
    )


def test_detect_contacts_separated():
    g = build_open_gripper(Pose([-1.0, 0.0, 0.0]))
    box = Obb(Pose([1.0, 0.0, 0.0]), [0.05, 0.05, 0.05])
    assert detect_contacts(g, box) == []


def test_detect_contacts_single_sphere_face_case():
    box = Obb(Pose(), [0.1, 0.1, 0.1])
    g = one_sphere_gripper([0.1 + 0.045, 0.0, 0.0], 0.05)
    contacts = detect_contacts(g, box)
    assert len(contacts) == 1
    assert abs(contacts[0].depth - 0.005) < 1e-12
    assert np.allclose(contacts[0].normal, [-1.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(contacts[0].point, [0.1, 0.0, 0.0], atol=1e-12)


def test_detect_contacts_matches_per_sphere_queries(rng):
    box = Obb(Pose([0.1, 0.02, -0.01], random_quat(rng)), [0.06, 0.05, 0.04])
    g = build_open_gripper(Pose([0.0, 0.0, 0.0]))
    contacts = detect_contacts(g, box)
    expected = []
    for center, radius in zip(g.world_sphere_centers, g.sphere_radii):
        q = sphere_obb_query(center, float(radius), box)
        if q.signed_distance < 0:
            expected.append(q.contact)
    assert len(contacts) == len(expected) > 0
    for got, exp in zip(contacts, expected):
        assert np.array_equal(got.point, exp.point)
        assert np.array_equal(got.normal, exp.normal)
        assert got.depth == exp.depth


# ---------------------------------------------------------------- impulse solver
def test_resolve_empty_contact_list():
    body = make_body(lin_vel=(0.1, 0.0, 0.0))
    out, result = resolve_contacts(body, Obb(body.pose, [0.1] * 3), [], lambda p: np.zeros(3), DT)
    assert out is body
    assert (result.total_normal_impulse, result.max_depth, result.residual) == (0.0, 0.0, 0.0)


def central_hit_setup():
    # Stationary 1 kg box at the origin, gripper sphere pressed into the +x
    # face, contact ray through the center of mass, gripper advancing at
    # 0.1 m/s toward the box.
    target = make_body(mass=1.0, inertia=box_inertia_diag(1.0, [0.1] * 3))
    box = Obb(target.pose, [0.1, 0.1, 0.1])
    g = one_sphere_gripper([0.1 + 0.045, 0.0, 0.0], 0.05)
    contacts = detect_contacts(g, box)
    assert len(contacts) == 1
    vel = np.array([-0.1, 0.0, 0.0])
    return target, box, contacts, (lambda p: vel)


def test_resolve_central_hit_closed_form_no_bias():
    target, box, contacts, gripper_vel = central_hit_setup()
    out, result = resolve_contacts(target, box, contacts, gripper_vel, DT, beta=0.0)
    # Zero restitution: the target matches the gripper's normal velocity, so
    # j = m * dv = 1 kg * 0.1 m/s.
    assert abs(result.total_normal_impulse - 0.1) < 1e-9
    assert np.allclose(out.lin_vel, [-0.1, 0.0, 0.0], atol=1e-9)
    assert np.allclose(out.ang_vel, 0.0, atol=1e-12)
    # Post-resolution relative normal velocity is non-negative.
    n = contacts[0].normal
    v_rel = float((out.lin_vel - gripper_vel(contacts[0].point)) @ n)
    assert v_rel >= -1e-6


def test_resolve_central_hit_includes_baumgarte_bias():
    target, box, contacts, gripper_vel = central_hit_setup()
    beta = 0.2
    out, result = resolve_contacts(target, box, contacts, gripper_vel, DT, beta=beta)
    bias = beta * contacts[0].depth / DT
    assert abs(result.total_normal_impulse - (0.1 + bias)) < 1e-9 + 0.01 * (0.1 + bias)


def test_resolve_off_center_hit_gains_angular_velocity():
    target = make_body(mass=1.0, inertia=box_inertia_diag(1.0, [0.1] * 3))
    box = Obb(target.pose, [0.1, 0.1, 0.1])
    g = one_sphere_gripper([0.1 + 0.045, 0.05, 0.0], 0.05)
    contacts = detect_contacts(g, box)
    assert len(contacts) == 1
    c = contacts[0]
    vel = np.array([-0.1, 0.0, 0.0])
    out, result = resolve_contacts(target, box, contacts, lambda p: vel, DT, beta=0.0)
    # Closed-form single-contact impulse and the rigid-body response.
    r = c.point - target.pose.position
    n = c.normal
    inv_inertia = 1.0 / target.inertia_diag  # identity orientation: body == world
    k = 1.0 / target.mass + float(np.cross(inv_inertia * np.cross(r, n), r) @ n)
    j = 0.1 / k
    assert abs(result.total_normal_impulse - j) < 1e-9
    assert np.allclose(out.lin_vel, j * n / target.mass, atol=1e-9)
    assert np.allclose(out.ang_vel, inv_inertia * np.cross(r, j * n), atol=1e-9)


def test_resolve_momentum_bookkeeping(rng):
    for _ in range(20):
        target = make_body(
            pose=Pose(rng.uniform(-0.1, 0.1, 3), random_quat(rng)),
            lin_vel=rng.uniform(-0.1, 0.1, 3),
            ang_vel=rng.uniform(-0.5, 0.5, 3),
            mass=rng.uniform(0.5, 2.0),
            inertia=rng.uniform(0.01, 0.1, 3),
        )
        box = Obb(target.pose, [0.08, 0.06, 0.07])
        g = build_open_gripper(Pose(target.pose.position + [-0.18, 0.0, 0.0]))
        contacts = detect_contacts(g, box)
        if not contacts:
            continue
        g_vel = rng.uniform(-0.2, 0.2, 3)
        out, result = resolve_contacts(target, box, contacts, lambda p: g_vel, DT)
        _, _, impulses, _ = _reference_resolve(target, contacts, lambda p: g_vel)
        applied = sum(j * c.normal for j, c in zip(impulses, contacts))
        dp = out.mass * out.lin_vel - target.mass * target.lin_vel
        # Momentum change equals the vector sum of the applied impulses.
        assert np.allclose(dp, applied, atol=1e-9)


def _reference_resolve(target, contacts, gripper_vel_at, dt=DT,
                       passes=dynamics.SOLVER_PASSES, beta=dynamics.BAUMGARTE_BETA):
    """The sequential-impulse loop on numpy 3-vectors, recomputing every
    term on every pass; returns (lin_vel, body-frame ang_vel, per-contact
    impulses, residual after the last pass)."""
    from softcap.spatial import quat_to_matrix

    rot = quat_to_matrix(target.pose.orientation)
    inv_inertia_world = rot @ np.diag(1.0 / target.inertia_diag) @ rot.T
    inv_mass = 1.0 / target.mass
    v = target.lin_vel.copy()
    w = rot @ target.ang_vel
    impulses = np.zeros(len(contacts))

    def relative_normal_velocity(c):
        r = c.point - target.pose.position
        return float((v + np.cross(w, r) - gripper_vel_at(c.point)) @ c.normal)

    for _ in range(passes):
        for i, c in enumerate(contacts):
            r = c.point - target.pose.position
            v_rel = relative_normal_velocity(c)
            k = inv_mass + float(np.cross(inv_inertia_world @ np.cross(r, c.normal), r) @ c.normal)
            dj = (beta * c.depth / dt - v_rel) / k
            new = max(0.0, impulses[i] + dj)
            dj = new - impulses[i]
            impulses[i] = new
            v += dj * inv_mass * c.normal
            w += inv_inertia_world @ np.cross(r, dj * c.normal)
    residual = max(max(beta * c.depth / dt - relative_normal_velocity(c), 0.0) for c in contacts)
    return v, rot.T @ w, impulses, residual


def test_resolve_matches_reference_solver_multi_contact(rng):
    checked = 0
    for _ in range(400):
        target = make_body(
            pose=Pose(rng.uniform(-0.05, 0.05, 3), random_quat(rng)),
            lin_vel=rng.uniform(-0.2, 0.2, 3),
            ang_vel=rng.uniform(-1.0, 1.0, 3),
            mass=rng.uniform(0.5, 2.0),
            inertia=rng.uniform(0.005, 0.05, 3),
        )
        box = Obb(target.pose, [0.08, 0.06, 0.07])
        g = GripperBody(
            pose=Pose(target.pose.position + rng.uniform(-0.2, 0.2, 3), random_quat(rng)),
            lin_vel=rng.uniform(-0.3, 0.3, 3),
            ang_vel=rng.uniform(-2.0, 2.0, 3),
            sphere_centers=build_open_gripper().sphere_centers,
            sphere_radii=build_open_gripper().sphere_radii,
        )
        contacts = detect_contacts(g, box)
        if len(contacts) < 2:
            continue
        checked += 1
        out, result = resolve_contacts(target, box, contacts, g.velocity_at, DT)
        v, w, impulses, residual = _reference_resolve(target, contacts, g.velocity_at)
        # Same algorithm, terms regrouped: agreement to a few ulps of the
        # O(0.1-1) velocities and impulses.
        np.testing.assert_allclose(out.lin_vel, v, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out.ang_vel, w, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(result.total_normal_impulse, impulses.sum(), rtol=1e-12, atol=1e-14)
        assert result.residual == pytest.approx(residual, rel=1e-9, abs=1e-12)
        assert result.max_depth == max(c.depth for c in contacts)
    assert checked >= 20


def test_resolve_impulses_never_pull(rng):
    hits = 0
    for _ in range(50):
        target = make_body(
            pose=Pose(rng.uniform(-0.05, 0.05, 3), random_quat(rng)),
            lin_vel=rng.uniform(-0.2, 0.2, 3),
            ang_vel=rng.uniform(-1.0, 1.0, 3),
            mass=rng.uniform(0.5, 2.0),
            inertia=rng.uniform(0.005, 0.05, 3),
        )
        box = Obb(target.pose, [0.08, 0.06, 0.07])
        g = build_open_gripper(Pose(target.pose.position + rng.uniform(-0.2, 0.2, 3)))
        contacts = detect_contacts(g, box)
        if not contacts:
            continue
        hits += 1
        g_vel = rng.uniform(-0.3, 0.3, 3)
        _, result = resolve_contacts(target, box, contacts, lambda p: g_vel, DT)
        assert result.total_normal_impulse >= 0.0
        _, _, impulses, _ = _reference_resolve(target, contacts, lambda p: g_vel)
        assert np.all(impulses >= 0.0)
    assert hits >= 5


def test_resolve_single_contact_leaves_no_residual():
    # Criterion 04's central hit: one pass meets the bias exactly.
    target, box, contacts, gripper_vel = central_hit_setup()
    for beta in (0.0, 0.2):
        _, result = resolve_contacts(target, box, contacts, gripper_vel, DT, beta=beta)
        assert 0.0 <= result.residual <= 1e-12
        assert result.max_depth == contacts[0].depth


def test_tactile_consistency_for_advancing_contact():
    target, box, contacts, gripper_vel = central_hit_setup()
    _, result = resolve_contacts(target, box, contacts, gripper_vel, DT)
    assert result.total_normal_impulse > 0.0


def test_conservation_resumes_after_separation():
    target, box, contacts, gripper_vel = central_hit_setup()
    out, _ = resolve_contacts(target, box, contacts, gripper_vel, DT)
    out = make_body(
        pose=out.pose, lin_vel=out.lin_vel, ang_vel=(0.2, 0.8, -0.1),
        mass=out.mass, inertia=(1.0, 2.0, 3.0),
    )
    l0, e0 = out.angular_momentum_world(), out.rotational_energy()
    for _ in range(500):
        out = step_free_body(out, DT)
    assert np.linalg.norm(out.angular_momentum_world() - l0) / np.linalg.norm(l0) < 1e-4
    assert abs(out.rotational_energy() - e0) / e0 < 1e-4


# ---------------------------------------------------------------- rig geometry
def test_open_gripper_rig_shape():
    g = build_open_gripper()
    assert g.sphere_centers.shape[0] == 10  # 9 finger + 1 palm
    assert np.sum(g.sphere_radii == dynamics.FINGER_SPHERE_RADIUS) == 9
    assert np.sum(g.sphere_radii == dynamics.PALM_SPHERE_RADIUS) == 1
    # The region is qhull's hull of the 12 rig points, bit for bit, after
    # the same rounding, duplicate removal and normalization.
    eq = np.unique(np.round(ConvexHull(dynamics.open_gripper_region_points()).equations, 9), axis=0)
    lengths = np.linalg.norm(eq[:, :3], axis=1)
    assert g.finger_region.normals.shape == (11, 3)
    assert np.array_equal(g.finger_region.normals, eq[:, :3] / lengths[:, None])
    assert np.array_equal(g.finger_region.offsets, -eq[:, 3] / lengths)
    # The approach axis pierces the enclosure.
    assert spatial.contains_point(g.finger_region, g.pose, [0.10, 0.0, 0.0])
    assert not spatial.contains_point(g.finger_region, g.pose, [0.30, 0.0, 0.0])
    # Fingertip ring diameter gives the quoted 0.16 m clearance.
    tips = g.sphere_centers[np.isclose(g.sphere_centers[:, 0], 0.160)]
    assert np.allclose(np.linalg.norm(tips[:, 1:], axis=1), 0.080)


def test_gripper_velocity_at_point():
    g = build_open_gripper()
    g = apply_gripper_action(g, [0, 0, 0, 0, 0, 1], LIMITS, 1 / 60)
    v = g.velocity_at(g.pose.position + np.array([0.0, 1.0, 0.0]))
    # Pure yaw spin: a point on +y moves along -x.
    assert v[0] < 0.0
    assert abs(v[1]) < 1e-9
