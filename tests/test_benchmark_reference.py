"""The benchmark's reference digests and per-query check hold for the code under test.

Every perfbench/run.py run makes one reference call per workload (seed 0,
a fixed small size) and fails when the digest of its reports differs from
recorded.json's reference_sha256, that is, when any prediction changed.
It also re-derives each report's first episode through the per-query
public API (compute_prototypes, classify, classify_rnnp,
rectification_delta) and fails on any disagreement. This test makes the
same four calls and the same per-query checks at the reference size. They
run in a subprocess because
importing perfbench/run.py pins the BLAS thread variables of its process,
and the csv-ingest pool is written to a temporary directory, not to
perfbench's cache.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import rnnp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

REFERENCE_CALLS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run
import rnnp
csv_path = sys.argv[2]
run.write_csv(0, run.TINY_CSV_ROWS, csv_path)
calls, library = {}, {}
for w in run.WORKLOADS:
    csv = csv_path if w == "csv-ingest" else None
    calls[w] = run.reference_call(rnnp, w, csv)
    config = run.make_config(rnnp, w, 0, run.REFERENCE_EPISODES, csv)
    pool = rnnp.load_pool(config)
    library[w] = run.library_problems(rnnp, pool, config, rnnp.run_experiment(config))
print(json.dumps([calls, library]))
"""


def test_reference_digests_match_the_record(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(rnnp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_CALLS, str(PERFBENCH), str(tmp_path / "pool.csv")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    calls, library = json.loads(proc.stdout.splitlines()[-1])
    recorded = json.loads((PERFBENCH / "recorded.json").read_text(encoding="utf-8"))
    assert {w: problems for w, (_, problems) in calls.items()} == {w: [] for w in recorded}
    assert library == {w: [] for w in recorded}
    assert {w: digest for w, (digest, _) in calls.items()} == \
        {w: record["reference_sha256"] for w, record in recorded.items()}
