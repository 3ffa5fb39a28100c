"""Smoke test: every script in demos/ runs to completion on the public API.

Each demo runs in a subprocess with the directory holding the imported
rnnp package first on PYTHONPATH, at 4 episodes where it takes --episodes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rnnp

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# episode_walkthrough.py takes no flags: it walks through one episode.
NO_FLAGS = {"episode_walkthrough.py"}


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(Path(rnnp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = [] if script in NO_FLAGS else ["--episodes", "4"]
    proc = subprocess.run([sys.executable, str(DEMOS / script), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, f"{script} exited {proc.returncode}:\n{proc.stderr}"
