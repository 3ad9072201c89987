"""Every demo runs to completion on its own synthetic data."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name[:2].isdigit() and name.endswith((".py", ".sh")))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_cleanly(name, tmp_path):
    path = os.path.join(ROOT, "demos", name)
    argv = ["sh", path] if name.endswith(".sh") else [sys.executable, path]
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env.update(TMPDIR=str(tmp_path), PYTHON=sys.executable,
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
