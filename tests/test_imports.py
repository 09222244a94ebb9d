"""Every name a module imports is used: a stale import is a dependency that
no code has, and it hides what a file really reads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SOURCES = [*sorted(p for p in (REPO / "src" / "softcap").glob("*.py") if p.name != "__init__.py"),
           *sorted((REPO / "tests").glob("*.py"))]


def unused_imports(source: str):
    """(line, name) of each name an import binds that no expression of
    ``source`` reads; a ``from __future__`` import binds none."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [(node.lineno, alias.asname or alias.name.split(".")[0])
             for node in ast.walk(tree)
             if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_finds_each_unread_name():
    source = ("from __future__ import annotations\nimport os.path\nimport sys\n"
              "from json import dumps as to_json, loads\nsys.exit(to_json(os.sep))\n")
    assert unused_imports(source) == [(4, "loads")]
    assert unused_imports("import numpy as np\nfrom a import b\n") == [(1, "np"), (2, "b")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(REPO)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


RUNTIME_CHILD = """
import sys

import numpy as np

import softcap.harness
from softcap.env import EnvConfig, SoftCaptureEnv

env = SoftCaptureEnv(EnvConfig())
env.reset(0)
env.step(np.zeros(env.action_dim))
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""


def test_the_runtime_needs_no_scipy():
    """numpy and PyYAML are the runtime dependencies; scipy serves only the
    tests, as an independent oracle."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", RUNTIME_CHILD], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_name_the_benchmark_traces_exists(monkeypatch):
    """The benchmark wraps softcap's functions and methods by name; one that
    is deleted or renamed fails here, where installing the wrappers on the
    live package raises.  Every wrapper comes off again afterwards."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import layers
    import tracing

    import softcap
    from softcap import dynamics, env, harness, neural, sac, spatial

    owners = [spatial, dynamics, env, neural, sac, harness,
              env.SoftCaptureEnv, sac.SacAgent, sac.ReplayBuffer, sac.Trainer]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        layers.install(tracer, lambda name, ok, detail: None, softcap)
        assert env.compute_reward is not before[2]["compute_reward"]
    finally:
        tracer.unwrap_all()
        del sys.modules["layers"], sys.modules["tracing"]
    for owner, names in zip(owners, before):
        now = vars(owner)
        assert now.keys() == names.keys() and all(now[k] is v for k, v in names.items()), owner
