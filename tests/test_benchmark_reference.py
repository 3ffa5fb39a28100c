"""The benchmark's reference digests and per-query check hold for the code under test.

Every perfbench/run.py run makes one reference call per workload (seed 0,
a fixed small size) and fails when the digest of its reports differs from
recorded.json's reference_sha256, that is, when any prediction changed.
It also re-derives each report's first episode through the per-query
public API (compute_prototypes, classify, classify_rnnp,
rectification_delta) and fails on any disagreement. This test makes the
same four calls and the same per-query checks at the reference size, and
runs each reference config's reports through the rest of what a timed
call reads: slice_quality (rectification, paired_delta) and save_reports.
For the workloads in SLICED it also digests the full-size seed-0 slices,
which a full --seed 0 run checks against recorded.json's slices_sha256_*,
so a change of kernel arithmetic that moves a prediction fails here too.
They run in a subprocess because
importing perfbench/run.py pins the BLAS thread variables of its process,
and the csv-ingest pool is written to a temporary directory, not to
perfbench's cache.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import rnnp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Workloads whose full-size seed-0 slice digests are checked as well: one
# run of each at its benchmark size, the same calls a --seed 0 run digests.
SLICED = ("paper-w1", "ablation-w1")

REFERENCE_CALLS = """
import json, os, sys
from dataclasses import replace
sys.path.insert(0, sys.argv[1])
import run
import rnnp
csv_path = sys.argv[2]
run.write_csv(0, run.TINY_CSV_ROWS, csv_path)
calls, library, quality, saved = {}, {}, {}, {}
for w in run.WORKLOADS:
    csv = csv_path if w == "csv-ingest" else None
    calls[w] = run.reference_call(rnnp, w, csv)
    config = run.make_config(rnnp, w, 0, run.REFERENCE_EPISODES, csv)
    pool = rnnp.load_pool(config)
    reports = rnnp.run_experiment(config)
    library[w] = run.library_problems(rnnp, pool, config, reports)
    quality[w] = run.slice_quality(rnnp, config, reports)
    saved[w] = rnnp.save_reports(config, reports, os.path.join("reports", w))
slices = {}
for w in sys.argv[3:]:
    episodes, n = run.SIZES[w]
    config = run.make_config(rnnp, w, 0, episodes, None)
    slices[w] = {f"slices_sha256_{episodes}x{n}": run.digest(
        [rnnp.run_experiment(replace(config, seed=config.seed + k * episodes))
         for k in range(n)])}
print(json.dumps([calls, library, quality, saved, slices]))
"""


def test_reference_digests_match_the_record(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    src = str(Path(rnnp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", REFERENCE_CALLS, str(PERFBENCH), str(tmp_path / "pool.csv"),
         *SLICED],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    calls, library, quality, saved, slices = json.loads(proc.stdout.splitlines()[-1])
    recorded = json.loads((PERFBENCH / "recorded.json").read_text(encoding="utf-8"))
    assert {w: problems for w, (_, problems) in calls.items()} == {w: [] for w in recorded}
    assert library == {w: [] for w in recorded}
    assert {w: sorted(q) for w, q in quality.items()} == \
        {w: ["accuracy_mean", "paired_delta", "rectified_correct"] for w in recorded}
    assert all(math.isfinite(v) for q in quality.values() for v in q.values())
    assert all((tmp_path / path).is_file() for paths in saved.values() for path in paths)
    assert {w: digest for w, (digest, _) in calls.items()} == \
        {w: record["reference_sha256"] for w, record in recorded.items()}
    assert slices == {w: {key: recorded[w].get(key) for key in slices.get(w, {})} for w in SLICED}
