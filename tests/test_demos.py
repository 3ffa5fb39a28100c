"""Smoke test: every script in demos/ and README's library quickstart run
to completion on the public API.

Each runs in a subprocess with the directory holding the imported rnnp
package first on PYTHONPATH, a demo at 4 episodes where it takes
--episodes.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rnnp

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
# episode_walkthrough.py takes no flags: it walks through one episode.
NO_FLAGS = {"episode_walkthrough.py"}


def run_python(args, cwd):
    env = dict(os.environ)
    src = str(Path(rnnp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300, check=False)


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path):
    args = [] if script in NO_FLAGS else ["--episodes", "4"]
    proc = run_python([str(DEMOS / script), *args], tmp_path)
    assert proc.returncode == 0, f"{script} exited {proc.returncode}:\n{proc.stderr}"


def test_readme_quickstart_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"^```python\n(.*?)^```", section, flags=re.S | re.M).group(1)
    assert "classify_rnnp(episode, episode.query_features, cfg)" in code
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, f"the quickstart exited {proc.returncode}:\n{proc.stderr}"
