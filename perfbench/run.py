"""softcap benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a softcap checkout; the program is imported from its
``src/`` directory.  Workloads: learner-paper, sim-contact,
checkpoint-resume (see README.md).  The workload's inputs are made here from
the seed, then its jobs run in a child process (``job.py``) so that peak
memory is the job's own; checks that load a second copy of the program's
state run here after the child has exited.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``); the line
before it gives the checks that ran, any failures and the platform.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".perfbench_out"
TIME_LIMIT_S = 170.0
# The job process must end by then, leaving time for the checks after it.
JOB_DEADLINE_S = 155.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env() -> dict:
    """The caller's environment with BLAS threads capped at the usable cores
    and glibc's malloc thresholds fixed.

    By default glibc raises its mmap and trim thresholds as large blocks are
    freed, so how many pages a checkpoint load faults in depends on what the
    process did before; a load then took 30 to 90 ms at random.  With fixed
    thresholds every block of 4 MiB or more is mapped afresh, as in a new
    process, and repeated jobs cost the same.
    """
    cores = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            env[var] = str(cores)
    env["MALLOC_MMAP_THRESHOLD_"] = str(4 << 20)
    env["MALLOC_TRIM_THRESHOLD_"] = str(8 << 20)
    return env


def run(args, root: Path) -> int:
    started = time.monotonic()
    if not (root / "src" / "softcap" / "__init__.py").is_file():
        print(f"error: {root} holds no src/softcap; run from the root of a softcap checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out = root / OUT_DIR
    base = out / f"{args.workload}-{os.getpid()}"
    base.mkdir(parents=True)
    spec = {
        "root": str(root), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": bool(args.trace),
        "base": str(base), "result": str(base / "result.json"),
        "spans": str(out / f"spans-{args.workload}.jsonl"),
    }
    workload = workloads.WORKLOADS[args.workload](args.seed, base)
    try:
        workload.prepare()
        remaining = JOB_DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "job.py"), json.dumps(spec)],
                              env=_child_env(), timeout=remaining)
        if proc.returncode != 0:
            print(f"error: the job process exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(Path(spec["result"]).read_text())
        _check_after(workloads, workload, result)
    except subprocess.TimeoutExpired:
        print(f"error: the job did not finish within {JOB_DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps(result.pop("detail")))
    print(json.dumps(result))
    return 0


def _check_after(workloads, workload, result: dict) -> None:
    """Run the workload's checks that belong outside the job process and fold
    their outcome into ``result``."""
    checks = workloads.Checks()
    workload.check_after(checks)
    missing = sorted(set(workload.checks_after) - checks.ran)
    failures = checks.failures + [f"{name}: never ran" for name in missing]
    detail = result["detail"]
    detail["checks_ran"] = sorted(set(detail["checks_ran"]) | checks.ran)
    detail["failures"] += failures
    result["correct"] = result["correct"] and not failures


def selfcheck(root: Path) -> int:
    """Run every workload at its real size for one round, traced and untraced,
    and check that the metric names match BENCHMARK.json, that every
    end-to-end metric is positive and finite, and that every correctness
    check ran and passed."""
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in bench["end_to_end"]], 1: [m["name"] for m in bench["per_layer"]]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=TIME_LIMIT_S)
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if sorted(result["metrics"]) != sorted(names[trace]):
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']} {detail['failures']}")
            if trace == 0:
                bad = [n for n, m in result["metrics"].items()
                       if not (math.isfinite(m["value"]) and m["value"] > 0)]
                if bad:
                    problems.append(f"{label}: not positive and finite: {bad}")
            print(f"{label}: {len(detail['checks_ran'])} checks ran", file=sys.stderr)
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if args.selfcheck:
        return selfcheck(root)
    if not args.workload:
        parser.error("--workload is required")
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
