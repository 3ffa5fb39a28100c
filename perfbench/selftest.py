"""Self-test of the benchmark: every workload at a tiny size.

For each workload it runs perfbench/run.py --tiny twice untraced and
once traced. It asserts that each run is correct, which includes the
reference call's digest matching recorded.json; that every metric
BENCHMARK.json names is emitted with its unit as a finite number; that
the quality metrics of the two untraced runs are identical; that the
traced call's spans do not overlap, so harness.self_s is not negative;
that its layer totals and harness.self_s add up to its run_experiment
time, so no span fell outside the listed layers; and that the pool
metrics appear on paper-wN only.

Run from the repository root: python3 perfbench/selftest.py
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import CACHE, QUALITY, WORKLOADS  # noqa: E402

# Layer times that, with harness.self_s, make up a traced workers=1 call's run time.
# A span of a module not listed here breaks the sum.
LAYER_TOTALS = ("datagen.load_s", "episodes.total_s", "nnp.total_s", "refine.total_s",
                "metrics.total_s", "harness.self_s")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, (workload, trace, detail["errors"])
    return detail, result


def check_metrics(workload, result, wanted):
    names = {m["name"]: m["unit"] for m in wanted}
    assert set(result["metrics"]) == set(names), (workload, sorted(result["metrics"]))
    for name, m in result["metrics"].items():
        assert m["unit"] == names[name], (workload, name, m)
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), (workload, name, m)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS:
        first, result = run(workload, 0)
        check_metrics(workload, result, bench["end_to_end"])
        second, _ = run(workload, 0)
        for name in QUALITY:
            assert first["values"][name] == second["values"][name], (workload, name)
        detail, traced = run(workload, 1)
        check_metrics(workload, traced, bench["per_layer"])
        with open(os.path.join(CACHE, f"spans-{workload}.json"), encoding="utf-8") as fh:
            for call in json.load(fh):
                spans = sorted(call["spans"], key=lambda span: span["start"])
                for before, after in zip(spans, spans[1:]):
                    assert before["end"] <= after["start"], (workload, before, after)
        m = {name: v["value"] for name, v in traced["metrics"].items()}
        assert m["harness.self_s"] >= 0, (workload, m)
        pooled = workload == "paper-wN"
        for name in ("harness.pool_s", "harness.parallel_efficiency"):
            assert (name in detail["values"]) == pooled, (workload, name)
        if not pooled:  # on paper-wN the module layers come from another pass
            accounted = sum(m[k] for k in LAYER_TOTALS)
            assert abs(accounted - m["harness.run_s"]) < 1e-9, (workload, accounted, m)
        print(f"{workload}: ok")
    print("selftest passed")


if __name__ == "__main__":
    main()
