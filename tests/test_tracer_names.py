"""The benchmark tracer (``perfbench/tracing.py``) wraps names that the
package keeps for it alone, such as ``verify.candidate_families`` and the
re-imports marked ``# noqa: F401`` in ``verify.py``; its ``install``
stops on a name that no longer exists.  It runs in a fresh interpreter,
so its wrappers reach no other test."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_name_it_wraps():
    script = f"import sys; sys.path.insert(0, {str(ROOT / 'perfbench')!r}); import tracing; tracing.install()"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
