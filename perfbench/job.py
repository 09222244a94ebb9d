"""Runs one workload's rounds in a process of its own and writes the result
as JSON.  ``run.py`` starts it with one argument, a JSON job spec.

Rounds repeat until their set-up plus run time reaches the requested
seconds.  After each untraced round the workload's job is also started
``setup_probes`` more times and stopped at its first env reset, to time
set-up.  In a traced run every untraced round is followed by the same
round with the layer wrappers installed, and both count towards the
seconds; end-to-end figures come from the untraced rounds only, per-layer
figures from the traced ones.

Each workload times a reference loop (``reference.py``) through its
untraced rounds, outside their timed part, and its end-to-end times are
scaled by the host slowdown found.  Peak memory is read after the first
round.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median


def _platform(numpy, scipy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(spec: dict) -> dict:
    sys.path.insert(0, str(Path(spec["root"]) / "src"))
    import numpy
    import scipy
    import scipy.spatial  # noqa: F401 - the env imports it on first use; keep that out of set-up

    import softcap
    import layers
    import workloads
    from tracing import SpanStats, Tracer

    workload = workloads.WORKLOADS[spec["workload"]](spec["seed"], Path(spec["base"]))
    clock = workloads.SetupClock()
    checks = workloads.Checks()
    tracer = Tracer() if spec["trace"] else None
    speed = workload.speed
    plain, traced = [], []
    measured = 0.0
    while measured < spec["seconds"] or not plain:
        r = workload.round(len(plain) + len(traced), clock, checks, None)
        measured += sum(r.setup_s) + r.run_s
        if tracer is None:
            # Set-up lasts milliseconds on some workloads; more samples steady its median.
            r.setup_s += [workload.setup_probe(i, clock) for i in range(workload.setup_probes)]
            r.ops["setup_probes"] = workload.setup_probes
        if not plain:
            # Later rounds add only the allocator's history of earlier ones.
            peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        speed.sample()
        plain.append(r)
        if tracer is not None:
            layers.install(tracer, checks, softcap)
            try:
                traced.append(workload.round(len(plain) + len(traced), clock, checks, tracer))
            finally:
                tracer.unwrap_all()
            measured += sum(traced[-1].setup_s) + traced[-1].run_s

    required = workload.checks_untraced + (workload.checks_traced if tracer else ())
    missing = sorted(set(required) - checks.ran)
    failures = checks.failures + [f"{name}: never ran" for name in missing]
    rounds = plain + traced

    steps_per_s = sum(r.env_steps for r in plain) / sum(r.run_s for r in plain)
    setup_s = median(s for r in plain for s in r.setup_s)
    slowdown = speed.slowdown()
    if tracer is None:
        metrics = {
            "env_steps_per_s": (steps_per_s * slowdown, "steps/s"),
            "setup_s": (setup_s / slowdown, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
            "bytes_written": (median(r.bytes_written for r in plain), "bytes"),
        }
    else:
        tracer.write(spec["spans"])
        stats = SpanStats(tracer.spans)
        job_ns = sum(stats.dur[workloads.ROOT_SPAN])
        overhead = median((sum(t.setup_s) + t.run_s) / (sum(p.setup_s) + p.run_s) - 1.0
                          for p, t in zip(plain, traced))
        updates_per_s = sum(r.updates for r in plain) / sum(r.run_s for r in plain)
        values = layers.per_layer(stats, sum(r.env_steps for r in traced), job_ns,
                                  updates_per_s, overhead)
        metrics = {name: (values[name], unit) for name, unit in layers.PER_LAYER}

    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": {
            "workload": spec["workload"],
            "seed": spec["seed"],
            "rounds": len(plain),
            "traced_rounds": len(traced),
            "ops_per_round": plain[0].ops,
            "host_slowdown": {"value": slowdown, "weights": speed.weights,
                              "samples": {k: len(v) for k, v in speed.samples.items()},
                              "unscaled_env_steps_per_s": steps_per_s,
                              "unscaled_setup_s": setup_s},
            "inputs": getattr(workload, "input_stats", {}),
            "checks_ran": sorted(checks.ran),
            "failures": failures,
            "platform": _platform(numpy, scipy),
        },
    }


if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    result = main(job)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
