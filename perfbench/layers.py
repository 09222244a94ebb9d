"""Which softcap functions the traced run wraps, the checks that ride on
those wrappers, and the per-layer metrics computed from the spans.

Every wrapper replaces a module attribute or a class attribute, so calls the
program makes through ``module.function`` or through an instance are
recorded; nothing under ``src/`` is edited.
"""

from __future__ import annotations

import os

import numpy as np

from tracing import LAYERS, SpanStats, Tracer

# (name, unit) of every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("spatial.sphere_obb_query.self_us", "us"),
    ("spatial.sphere_obb_query.calls_per_step", "count"),
    ("spatial.contains_points.self_us", "us"),
    ("spatial.orientation_error.self_us", "us"),
    ("spatial.share", "fraction"),
    ("dynamics.detect_contacts.self_us", "us"),
    ("dynamics.resolve_contacts.self_us", "us"),
    ("dynamics.resolve_contacts.contacts_per_call", "count"),
    ("dynamics.resolve_contacts.calls_per_step", "count"),
    ("dynamics.step_free_body.self_us", "us"),
    ("dynamics.apply_gripper_action.self_us", "us"),
    ("dynamics.closest_pair_per_axis.self_us", "us"),
    ("dynamics.share", "fraction"),
    ("env.step.us", "us"),
    ("env.step.p95_us", "us"),
    ("env.step.calls", "count"),
    ("env.step.self_us", "us"),
    ("env.reset.us", "us"),
    ("env.compute_reward.self_us", "us"),
    ("env.write_trace_csv.ms", "ms"),
    ("env.share", "fraction"),
    ("neural.forward.b1.us", "us"),
    ("neural.forward.batch.self_ms", "ms"),
    ("neural.backward.self_ms", "ms"),
    ("neural.adam_step.self_ms", "ms"),
    ("neural.save_arrays.ms", "ms"),
    ("neural.load_arrays.ms", "ms"),
    ("neural.checkpoint_bytes", "bytes"),
    ("neural.share", "fraction"),
    ("sac.update.ms", "ms"),
    ("sac.updates_per_s", "1/s"),
    ("sac.critic_target.self_ms", "ms"),
    ("sac.update_critics.self_ms", "ms"),
    ("sac.update_policy.self_ms", "ms"),
    ("sac.update_temperature.self_us", "us"),
    ("sac.soft_update.self_ms", "ms"),
    ("sac.ReplayBuffer.sample.us", "us"),
    ("sac.ReplayBuffer.add.us", "us"),
    ("sac.sample_action.us", "us"),
    ("sac.Trainer.save.ms", "ms"),
    ("sac.Trainer.load.ms", "ms"),
    ("sac.share", "fraction"),
    ("harness.share", "fraction"),
    ("driver.share", "fraction"),
    ("io.share", "fraction"),
    ("trace.overhead_share", "fraction"),
)


def _arrays(obj):
    """Every ndarray reachable from a parameter container, in a fixed order."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    if hasattr(obj, "__dict__"):
        fields = vars(obj)
        return [a for key in sorted(fields) for a in _arrays(fields[key])]
    return []


def _target_pairs(critics):
    names = sorted(k for k in vars(critics) if k.startswith("target_"))
    return [(name, name[len("target_"):]) for name in names]


def install(tracer: Tracer, checks, softcap) -> None:
    """Wrap the layer boundaries named in the README; ``checks`` receives the
    results of the soft-update and single-contact impulse checks."""
    spatial, dynamics, env, neural, sac, harness = (
        softcap.spatial, softcap.dynamics, softcap.env, softcap.neural, softcap.sac, softcap.harness)

    for fn in ("sphere_obb_query", "contains_points", "orientation_error"):
        tracer.wrap(spatial, fn, f"spatial.{fn}")

    def snapshot_momentum(args, kwargs):
        return args[0].lin_vel.copy() if len(args[2]) == 1 else None

    def check_impulse(v0, args, kwargs, result, idx):
        # A lone contact changes the target's momentum by J n exactly.
        if v0 is None:
            return
        target, contacts = args[0], args[2]
        resolved, res = result
        dp = target.mass * (resolved.lin_vel - v0)
        jn = res.total_normal_impulse * contacts[0].normal
        checks("single_contact_impulse", bool(np.allclose(dp, jn, rtol=1e-9, atol=1e-12)),
               f"m dv {dp} != J n {jn}")

    for fn in ("detect_contacts", "step_free_body", "apply_gripper_action", "closest_pair_per_axis"):
        tracer.wrap(dynamics, fn, f"dynamics.{fn}")
    tracer.wrap(dynamics, "resolve_contacts", "dynamics.resolve_contacts",
                count=lambda a, k: len(a[2]), before=snapshot_momentum, after=check_impulse)

    tracer.wrap(env.SoftCaptureEnv, "step", "env.step")
    tracer.wrap(env.SoftCaptureEnv, "reset", "env.reset")
    tracer.wrap(env, "compute_reward", "env.compute_reward")
    tracer.wrap(env, "write_trace_csv", "env.write_trace_csv")

    def set_file_bytes(state, args, kwargs, result, idx):
        tracer.spans[idx][5] = os.path.getsize(args[0])

    tracer.wrap(neural, "forward",
                lambda a, k: "neural.forward.b1" if np.shape(a[1])[0] == 1 else "neural.forward.batch")
    tracer.wrap(neural, "backward", "neural.backward")
    tracer.wrap(neural, "adam_step", "neural.adam_step")
    tracer.wrap(neural, "save_arrays", "neural.save_arrays", after=set_file_bytes)
    tracer.wrap(neural, "load_arrays", "neural.load_arrays")

    def snapshot_targets(args, kwargs):
        critics = args[0].critics
        return {name: [a.copy() for a in _arrays(getattr(critics, name))]
                for name, _ in _target_pairs(critics)}

    def check_soft_update(before, args, kwargs, result, idx):
        agent = args[0]
        tau = agent.config.tau
        for target_name, online_name in _target_pairs(agent.critics):
            new = _arrays(getattr(agent.critics, target_name))
            online = _arrays(getattr(agent.critics, online_name))
            ok = len(new) == len(online) == len(before[target_name]) and all(
                np.allclose(t, tau * w + (1.0 - tau) * old, rtol=1e-12, atol=1e-15)
                for t, w, old in zip(new, online, before[target_name]))
            checks("soft_update", ok, f"{target_name} != tau * {online_name} + (1 - tau) * previous")

    tracer.wrap(sac.SacAgent, "update", "sac.update", before=snapshot_targets, after=check_soft_update)
    for fn in ("critic_target", "soft_update", "sample_action"):
        tracer.wrap(sac, fn, f"sac.{fn}")
    for fn in ("update_critics", "update_policy", "update_temperature"):
        tracer.wrap(sac.SacAgent, fn, f"sac.{fn}")
    tracer.wrap(sac.ReplayBuffer, "sample", "sac.ReplayBuffer.sample")
    tracer.wrap(sac.ReplayBuffer, "add", "sac.ReplayBuffer.add")
    tracer.wrap(sac.Trainer, "save", "sac.Trainer.save")
    tracer.wrap(sac.Trainer, "load", "sac.Trainer.load")
    tracer.wrap(sac.Trainer, "run", "sac.Trainer.run")

    tracer.wrap(harness, "run_train", "harness.run_train")


def per_layer(stats: SpanStats, env_steps: int, job_ns: int, updates_per_s: float,
              overhead_share: float) -> dict:
    us, ms = 1e3, 1e6
    steps = max(env_steps, 1)

    def share(layer):
        return stats.layer_self_ns[layer] / job_ns

    m = {
        "spatial.sphere_obb_query.self_us": stats.median_self("spatial.sphere_obb_query", us),
        "spatial.sphere_obb_query.calls_per_step": stats.calls("spatial.sphere_obb_query") / steps,
        "spatial.contains_points.self_us": stats.median_self("spatial.contains_points", us),
        "spatial.orientation_error.self_us": stats.median_self("spatial.orientation_error", us),
        "dynamics.detect_contacts.self_us": stats.median_self("dynamics.detect_contacts", us),
        "dynamics.resolve_contacts.self_us": stats.median_self("dynamics.resolve_contacts", us),
        "dynamics.resolve_contacts.contacts_per_call": stats.mean_count("dynamics.resolve_contacts"),
        "dynamics.resolve_contacts.calls_per_step": stats.calls("dynamics.resolve_contacts") / steps,
        "dynamics.step_free_body.self_us": stats.median_self("dynamics.step_free_body", us),
        "dynamics.apply_gripper_action.self_us": stats.median_self("dynamics.apply_gripper_action", us),
        "dynamics.closest_pair_per_axis.self_us": stats.median_self("dynamics.closest_pair_per_axis", us),
        "env.step.us": stats.median_dur("env.step", us),
        "env.step.p95_us": stats.p95_dur("env.step", us),
        "env.step.calls": stats.calls("env.step"),
        "env.step.self_us": stats.median_self("env.step", us),
        "env.reset.us": stats.median_dur("env.reset", us),
        "env.compute_reward.self_us": stats.median_self("env.compute_reward", us),
        "env.write_trace_csv.ms": stats.median_dur("env.write_trace_csv", ms),
        "neural.forward.b1.us": stats.median_dur("neural.forward.b1", us),
        "neural.forward.batch.self_ms": stats.median_self("neural.forward.batch", ms),
        "neural.backward.self_ms": stats.median_self("neural.backward", ms),
        "neural.adam_step.self_ms": stats.median_self("neural.adam_step", ms),
        "neural.save_arrays.ms": stats.median_dur("neural.save_arrays", ms),
        "neural.load_arrays.ms": stats.median_dur("neural.load_arrays", ms),
        "neural.checkpoint_bytes": stats.mean_count("neural.save_arrays"),
        "sac.update.ms": stats.median_dur("sac.update", ms),
        "sac.updates_per_s": updates_per_s,
        "sac.critic_target.self_ms": stats.median_self("sac.critic_target", ms),
        "sac.update_critics.self_ms": stats.median_self("sac.update_critics", ms),
        "sac.update_policy.self_ms": stats.median_self("sac.update_policy", ms),
        "sac.update_temperature.self_us": stats.median_self("sac.update_temperature", us),
        "sac.soft_update.self_ms": stats.median_self("sac.soft_update", ms),
        "sac.ReplayBuffer.sample.us": stats.median_dur("sac.ReplayBuffer.sample", us),
        "sac.ReplayBuffer.add.us": stats.median_dur("sac.ReplayBuffer.add", us),
        "sac.sample_action.us": stats.median_dur("sac.sample_action", us),
        "sac.Trainer.save.ms": stats.median_dur("sac.Trainer.save", ms),
        "sac.Trainer.load.ms": stats.median_dur("sac.Trainer.load", ms),
        "io.share": stats.io_self_ns / job_ns,
        "trace.overhead_share": overhead_share,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = share(layer)
    return m
