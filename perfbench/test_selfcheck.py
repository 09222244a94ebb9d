"""Self-check of the benchmark: one round of every workload at its real size,
traced and untraced (a few minutes).  Run from the repository root:

    python -m pytest perfbench/test_selfcheck.py
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_names_values_and_checks():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--selfcheck"],
                          cwd=ROOT, capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stderr
