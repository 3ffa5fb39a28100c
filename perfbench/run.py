"""Benchmark of the rnnp reproduction, driven from outside the package.

One run measures one workload in a closed loop in a single process:
set up (import rnnp, load the pool) a few times, then call
run_experiment(config) and save_reports back to back for --seconds,
check every call's outputs, and print one JSON object as the last line
of standard output. With --trace 1 it also replays the workload with
span wrappers at the module boundaries of rnnp.harness (see layers.py)
and reports per-layer metrics instead of the end-to-end ones. The line
before the result is a JSON record with the machine facts, every
computed metric, the checks and the error rate.

Run from the repository root:

    python3 perfbench/run.py --workload paper-w1 --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all     # every workload, untraced and traced, as a table
    python3 perfbench/selftest.py               # every workload at a tiny size

Workloads (BENCHMARK.json says why each exists):
  paper-w1     default_config(workers=1): the paper's table, refinement-bound
  paper-wN     the same with workers = usable cores, 16 episodes per worker a call: the pool
  ablation-w1  rate 0.4; nnp, hard_same, soft_different, soft_noise, labeled_direct
  csv-ingest   a 12.5k-row CSV pool loaded through data_path, short eval at 0.4

--seed n maps to experiment seed 7 + 1000 n and mixture seed 11 + n, so
--seed 0 is the paper's seeds and episode streams of different seeds
never overlap.

Every reported time is scaled to a reference speed (see Clock): on a
shared machine the same call takes up to half as long again from one
second to the next, and the scaling cancels that. The raw medians are in
the record line as raw_wall_s and raw_setup_s. On paper-wN the episodes,
nnp and refine layers come from a workers=1 traced pass, because spans
inside pool workers are lost; harness.pool_s and
harness.parallel_efficiency exist only there, where a pool runs.

Besides checking each call, every run makes one reference call: the
workload at --seed 0 and REFERENCE_EPISODES episodes, whose per-episode
outputs must hash to the value in recorded.json, so a change to any of
its predictions fails the run whatever its seed. At --seed 0 the slices'
outputs must also hash to their recorded value.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, so at most one busy thread per process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from layers import Tracer, layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(HERE, "_cache")

WORKLOADS = ("paper-w1", "paper-wN", "ablation-w1", "csv-ingest")
QUALITY = ("accuracy_mean", "paired_delta", "rectified_correct")
# Metrics that are computed and printed but not in BENCHMARK.json: paired_delta
# spreads too much between seeds to be bounded, refine.direct_s is exactly
# 0 on every workload without a labeled_direct method, and the pool metrics
# exist only on paper-wN, while a traced run must report every listed metric.
UNLISTED = {"paired_delta": "fraction", "refine.direct_s": "s", "harness.pool_s": "s",
            "harness.parallel_efficiency": "fraction"}
RATE = 0.4
# (episodes per run_experiment call, slices). Calls cycle through `slices`
# disjoint stretches of the episode stream. Short calls (0.3 to 1.4 s)
# give a run many samples for its medians, and the quality metrics average
# every slice (64 to 128 episodes on 2 cores), which keeps them close
# between seeds. paper-wN's count is per worker: harness sends chunks of
# n // (8 workers) episodes, so with 16 episodes per worker every worker
# gets 8 chunks of 2 episodes, as it gets 8 chunks of n // (8 workers) at
# 1000 episodes, and pool start-up (about 15 ms on 2 cores) is about 1%
# of a call. A 1000-episode call would give one sample per run.
SIZES = {"paper-w1": (5, 24), "paper-wN": (16, 4), "ablation-w1": (8, 8), "csv-ingest": (8, 10)}
TINY_SIZE = (4, 2)
# 12.5k rows parse in about 0.55 s, most of a csv-ingest call of about
# 0.85 s. At 100k rows a call takes 5 s, and at 25k rows 1.5 s: too few
# calls per run for a steady median on a shared machine.
CSV_ROWS = 12_500
TINY_CSV_ROWS = 2_000
# Size of the reference call made in every run: seed 0, this many episodes,
# and for csv-ingest a TINY_CSV_ROWS-row pool.
REFERENCE_EPISODES = 8
# recorded.json's quality metrics are the means over --seed 1 to this.
RECORD_SEEDS = 20
# Seconds the calibration chunk is taken to last on the reference machine;
# see calibrate(). Never change these or the chunk: every reported time would move.
CAL_REF_S = 0.05
CAL_ROUNDS = 375
CAL_TEXT = "\n".join(",".join(repr(float(x)) for x in row)
                     for row in np.random.default_rng(1).standard_normal((600, 64)))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sizes(workload: str, tiny: bool) -> tuple[int, int]:
    """(episodes per call, slices) of a workload run."""
    if tiny:
        return TINY_SIZE
    episodes, slices = SIZES[workload]
    return (episodes * nproc(), slices) if workload == "paper-wN" else (episodes, slices)


def fresh_import():
    """Import rnnp from scratch, so each set-up pays the package's import."""
    for name in [m for m in sys.modules if m == "rnnp" or m.startswith("rnnp.")]:
        del sys.modules[name]
    return importlib.import_module("rnnp")


def seeds(seed: int) -> tuple[int, int]:
    """(experiment seed, mixture seed) of a workload seed."""
    return 7 + 1000 * seed, 11 + seed


def make_config(rnnp, workload: str, seed: int, episodes: int, csv_path: str | None):
    exp_seed, mix_seed = seeds(seed)
    mixture = replace(rnnp.default_config().mixture, seed=mix_seed)
    common = dict(seed=exp_seed, n_episodes=episodes, workers=1)
    if workload == "paper-w1":
        return rnnp.default_config(mixture=mixture, **common)
    if workload == "paper-wN":
        return rnnp.default_config(mixture=mixture, **{**common, "workers": nproc()})
    if workload == "ablation-w1":
        def variant(label, **kwargs):
            return rnnp.MethodSpec(method="rnnp", rnnp=rnnp.RnnpConfig(beta=4, **kwargs),
                                   label=label)
        methods = (
            rnnp.MethodSpec(method="nnp"),
            variant("hard_same", clustering_mode="hard"),
            variant("soft_different", hybrid_source="different_class"),
            variant("soft_noise", hybrid_source="gaussian_noise"),
            variant("labeled_direct", hybrid_labeling="labeled_direct"),
        )
        return rnnp.default_config(mixture=mixture, methods=methods,
                                   corruption_rates=(RATE,), **common)
    return rnnp.default_config(mixture=None, data_path=csv_path, data_format="csv",
                               corruption_rates=(RATE,), **common)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_csv(seed: int, rows: int, path: str) -> None:
    """The default mixture at the workload's mixture seed, `rows` rows, as CSV."""
    rnnp = importlib.import_module("rnnp")
    mixture = rnnp.default_config().mixture
    spec = replace(mixture, samples_per_class=rows // mixture.num_classes, seed=seeds(seed)[1])
    rnnp.write_embeddings(rnnp.generate_mixture(spec), path, "csv")


def ensure_csvs(*wanted: tuple[int, int]) -> list[str]:
    """Paths of the CSV pools for the given (seed, rows) pairs, each written once.

    A file is written with write_embeddings and cached under _cache next
    to its row count and SHA-256; a file that does not match them is
    written again. Pools not asked for are deleted, so the cache holds at
    most the run's pool and the reference call's.
    """
    paths = {w: os.path.join(CACHE, f"pool-s{w[0]}-r{w[1]}.csv") for w in wanted}
    keep = {name for path in paths.values() for name in (path, path + ".json")}
    os.makedirs(CACHE, exist_ok=True)
    for name in os.listdir(CACHE):
        if name.startswith("pool-") and os.path.join(CACHE, name) not in keep:
            os.remove(os.path.join(CACHE, name))
    for (seed, rows), path in paths.items():
        meta_path = path + ".json"
        if os.path.exists(path) and os.path.exists(meta_path):
            with open(meta_path, encoding="utf-8") as fh:
                meta = json.load(fh)
            if meta.get("rows") == rows and meta.get("sha256") == sha256(path):
                continue
        tmp = path + ".tmp"
        # A separate process writes the file, so its memory stays out of peak_rss_mb.
        # Forked, not spawned: spawning starts multiprocessing's resource
        # tracker, a process that outlives this one.
        writer = multiprocessing.get_context("fork").Process(target=write_csv,
                                                             args=(seed, rows, tmp), daemon=True)
        writer.start()
        writer.join()
        if writer.exitcode != 0:
            raise RuntimeError(f"writing {tmp} failed with exit code {writer.exitcode}")
        meta = {"rows": rows, "sha256": sha256(tmp)}
        os.replace(tmp, path)
        with open(meta_path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)
        os.replace(meta_path + ".tmp", meta_path)
    return [paths[w] for w in wanted]


def calibrate() -> float:
    """Seconds one fixed chunk of work takes now, in this process.

    The chunk is CAL_ROUNDS rounds of soft k-means on a fixed 126x64 pool
    with 5 centres, like the program's refinement, then one parse of a
    fixed 600-row block of CSV floats, like its file loader; each half
    takes about as long as the other. It is written here so that no
    change to rnnp can alter it. Shared machines speed up and slow down
    by half within seconds; a chunk run next to each timed call measures
    the speed the call ran at.
    """
    t0 = perf_counter()
    pool = np.random.default_rng(0).standard_normal((126, 64))
    centers = pool[:5].copy()
    for _ in range(CAL_ROUNDS):
        d = (np.einsum("md,md->m", pool, pool)[:, None] - 2.0 * (pool @ centers.T)
             + np.einsum("nd,nd->n", centers, centers)[None, :])
        r = np.exp(-(d - d.min(axis=1, keepdims=True)))
        r /= r.sum(axis=1, keepdims=True)
        centers = (r.T @ pool) / r.sum(axis=0)[:, None]
    [[float(x) for x in line.split(",")] for line in CAL_TEXT.splitlines()]
    return perf_counter() - t0


def calibration_helper(conn, parent_end) -> None:
    """Runs one calibration chunk per request until told to stop.

    It closes its forked copy of the parent's end of the pipe, so that it
    sees end-of-file and stops if the parent dies without telling it.
    """
    parent_end.close()
    try:
        while conn.recv():
            conn.send(calibrate())
    except (EOFError, OSError):
        pass


class Clock:
    """Scales each timed interval to the reference machine's speed.

    An interval is multiplied by CAL_REF_S over the mean of the
    calibration chunks run just before and just after it, so a time
    reads as the seconds it would take where the chunk takes CAL_REF_S.
    For a workload on several cores, helper processes run the chunk at
    the same time as this one, one per extra core. The pool hands out
    work as workers free up, so a pooled call runs at the cores' summed
    speed: the chunk time that counts is cores over the sum of 1/time.
    Each side of an interval runs `repeats` chunks and takes their mean;
    long calls need more, as their speed is sampled only at their ends.
    """

    def __init__(self, cores: int = 1, repeats: int = 1):
        self._repeats = repeats
        # Helpers are forked, not spawned: spawning starts multiprocessing's
        # resource tracker, a process that outlives this one. As daemons they
        # are also ended at exit if close() is never reached.
        ctx = multiprocessing.get_context("fork")
        self._helpers = []
        try:
            for _ in range(cores - 1):
                here, there = ctx.Pipe()
                proc = ctx.Process(target=calibration_helper, args=(there, here), daemon=True)
                proc.start()
                there.close()
                self._helpers.append((proc, here))
            self._chunk()  # the first chunk of a fresh helper process runs cold
            self.last = self._chunk()
        except BaseException:
            self.close()
            raise
        self.chunks = [self.last]

    def _chunk(self) -> float:
        combined = []
        for _ in range(self._repeats):
            for _, conn in self._helpers:
                conn.send(True)
            times = [calibrate()] + [conn.recv() for _, conn in self._helpers]
            combined.append(len(times) / sum(1.0 / t for t in times))
        return statistics.fmean(combined)

    def scale(self) -> float:
        """Factor for the interval since the previous call; runs the next chunk."""
        now = self._chunk()
        factor = CAL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.chunks.append(now)
        return factor

    def close(self) -> None:
        """Stop every helper and wait until each has ended."""
        for proc, conn in self._helpers:
            try:
                conn.send(False)
            except OSError:  # the helper is gone already
                pass
            conn.close()
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._helpers.clear()


def measure_setup(build):
    """Repeat import-plus-load set-ups; returns (rnnp, config, pool, times).

    Each set-up is a fresh `import rnnp` plus one load_pool(config); the
    config is built between the two, outside the timed part. Each time is
    a (raw, scaled) pair, scaled by a one-core clock as set-up runs in one
    process. At least five set-ups run, and more (up to 25) while they
    take under 1 s.
    """
    clock = Clock()
    times = []
    start = perf_counter()
    while len(times) < 5 or (len(times) < 25 and perf_counter() - start < 1.0):
        t0 = perf_counter()
        rnnp = fresh_import()
        t1 = perf_counter()
        config = build(rnnp)
        t2 = perf_counter()
        pool = rnnp.load_pool(config)
        raw = t1 - t0 + perf_counter() - t2
        times.append((raw, raw * clock.scale()))
    return rnnp, config, pool, times


def fingerprint(reports) -> list:
    """Everything a report says about predictions, for exact comparison."""
    return [(r.method, r.corruption_rate, r.skipped_episodes, r.episode_indices,
             r.per_episode_accuracies, r.per_episode_rectification) for r in reports]


def digest(calls) -> str:
    """SHA-256 of the fingerprints of a list of calls' reports."""
    text = json.dumps([fingerprint(reports) for reports in calls])
    return hashlib.sha256(text.encode()).hexdigest()


def report_problems(config, reports) -> list[str]:
    want = sorted((m.label, rate) for m in config.methods for rate in config.corruption_rates)
    got = sorted((r.method, r.corruption_rate) for r in reports)
    problems = [] if got == want else [f"reports cover {got}, expected {want}"]
    for r in reports:
        if r.n_episodes + r.skipped_episodes != config.n_episodes:
            problems.append(f"{r.method}@{r.corruption_rate}: {r.n_episodes} evaluated + "
                            f"{r.skipped_episodes} skipped != {config.n_episodes} requested")
    return problems


class Verdict:
    """Counts run_experiment calls and the ones whose outputs failed a check.

    The first call of each slice that passes becomes that slice's
    reference; every later call of the slice, traced or not and whatever
    its worker count, must reproduce its per-episode accuracies and
    rectification pairs exactly.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference = {}  # slice index -> reports

    def judge(self, index, config, reports) -> bool:
        self.attempted += 1
        problems = report_problems(config, reports)
        if not problems:
            first = self.reference.setdefault(index, reports)
            if fingerprint(reports) != fingerprint(first):
                problems.append(f"slice {index}: per-episode outputs differ from its first call")
        return self.fail(problems)

    def crash(self, exc: BaseException) -> None:
        self.attempted += 1
        traceback.print_exception(exc, file=sys.stderr)
        self.fail([f"run_experiment raised {type(exc).__name__}: {exc}"])

    def fail(self, problems) -> bool:
        """Count one more failed call if there are problems; True when there are none."""
        if problems:
            self.failed += 1
            self.errors.extend(problems)
        return not problems


def quality(rnnp, configs, references) -> dict:
    """Quality metrics averaged over the slices; deterministic for a seed."""
    per_slice = [slice_quality(rnnp, c, references[k]) for k, c in enumerate(configs)]
    return {name: float(np.mean([q[name] for q in per_slice])) for name in QUALITY}


def slice_quality(rnnp, config, reports) -> dict:
    """Quality metrics of one call.

    paired_delta and rectified_correct average over the rnnp methods that
    cluster (unlabeled hybrids) at the highest corruption rate.
    """
    top = max(config.corruption_rates)
    by_key = {(r.method, r.corruption_rate): r for r in reports}
    clustering = [m.label for m in config.methods
                  if m.method == "rnnp" and m.rnnp.hybrid_labeling == "unlabeled_cluster"]
    base = next(m.label for m in config.methods if m.method == "nnp")
    return {
        "accuracy_mean": float(np.mean([r.mean_accuracy for r in reports])),
        "paired_delta": float(np.mean([rnnp.paired_delta(by_key[(m, top)], by_key[(base, top)])[0]
                                       for m in clustering])),
        "rectified_correct": float(np.mean(
            [by_key[(m, top)].rectification["mean_correct_after"] for m in clustering])),
    }


def library_problems(rnnp, pool, config, reports) -> list[str]:
    """Re-derive each report's first evaluated episode through the per-query API.

    classify and classify_rnnp take one query at a time and share no
    episode loop with the harness, so agreement is checked exactly.
    """
    salt = sys.modules["rnnp.harness"].CORRUPTION_SEED_SALT
    methods = {m.label: m for m in config.methods}
    problems = []
    for r in reports:
        i = r.episode_indices[0]
        episode = rnnp.sample_episode(pool, config.n_way, config.k_shot,
                                      config.queries_per_class, config.seed + i)
        episode = rnnp.corrupt_labels(episode, rnnp.CorruptionSpec(
            rate=r.corruption_rate, seed=(config.seed ^ salt) + i))
        method = methods[r.method]
        if method.method == "nnp":
            protos = rnnp.compute_prototypes(episode, "observed")
            preds = [rnnp.classify(protos, q)[1] for q in episode.query_features]
        else:
            outs = [rnnp.classify_rnnp(episode, q, method.rnnp) for q in episode.query_features]
            preds = [pred for _, pred, _ in outs]
            pairs = [rnnp.rectification_delta(episode, trace) for _, _, trace in outs]
            expected = [pairs[0][0], float(np.mean([after for _, after in pairs]))]
            if list(r.per_episode_rectification[0]) != expected:
                problems.append(f"{r.method}@{r.corruption_rate} episode {i}: rectification "
                                f"{r.per_episode_rectification[0]} != per-query {expected}")
        acc = rnnp.episode_accuracy(preds, episode.query_labels)
        if acc != r.per_episode_accuracies[0]:
            problems.append(f"{r.method}@{r.corruption_rate} episode {i}: accuracy "
                            f"{r.per_episode_accuracies[0]!r} != per-query {acc!r}")
    return problems


def load_record(workload: str) -> dict:
    with open(os.path.join(HERE, "recorded.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def reference_call(rnnp, workload: str, csv_path: str | None) -> tuple[str | None, list[str]]:
    """(digest, problems) of the run's reference call, at seed 0 and a fixed size."""
    config = make_config(rnnp, workload, 0, REFERENCE_EPISODES, csv_path)
    try:
        reports = rnnp.run_experiment(config)
    except Exception as exc:  # a crashing reference call is a failed check
        traceback.print_exception(exc, file=sys.stderr)
        return None, [f"reference call raised {type(exc).__name__}: {exc}"]
    return digest([reports]), report_problems(config, reports)


def digest_problems(record: dict, digests: dict) -> list[str]:
    """Each digest must equal the one recorded for it: any changed prediction fails."""
    return [f"{key} {value} != recorded {record.get(key)}: predictions changed"
            for key, value in digests.items() if value is not None and value != record.get(key)]


def quality_problems(record: dict, values: dict, bench: dict) -> list[str]:
    """Quality metrics must lie within their BENCHMARK.json bound of the record.

    The recorded values are the means over --seed 1 to RECORD_SEEDS at
    full size, so every seed's values scatter around them; the bounds are
    set from that scatter. The digests are the exact check; this one
    shows how far a failing run is off.
    """
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    problems = []
    for name in QUALITY:
        if name not in record:
            problems.append(f"recorded.json has no {name}")
        elif name in bounds and abs(values[name] - record[name]) > bounds[name] * abs(record[name]):
            problems.append(f"{name} {values[name]!r} is outside {bounds[name]} of the "
                            f"recorded {record[name]!r}")
    return problems


def timed_calls(rnnp, configs, seconds: float, verdict: Verdict, out_dir: str,
                clock: Clock, tracer: Tracer | None = None) -> list[dict]:
    """Closed loop of run_experiment + save_reports, cycling through the slices.

    Runs every slice once and then goes on until `seconds` have passed.

    Returns one sample per call that passed its checks: run_s, wall_s
    (run plus save), the clock's scale factor for the call, and with a
    tracer the call's layer metrics.
    """
    samples = []
    calls = 0
    deadline = perf_counter() + seconds
    while calls < len(configs) or perf_counter() < deadline:
        index = calls % len(configs)
        config = configs[index]
        calls += 1
        try:
            t0 = perf_counter()
            reports = rnnp.run_experiment(config)
            t1 = perf_counter()
            paths = rnnp.save_reports(config, reports, out_dir)
            t2 = perf_counter()
        except Exception as exc:  # a crashing call is a failed attempt, not the end of the run
            verdict.crash(exc)
            if tracer is not None:
                tracer.take()
            clock.scale()
            continue
        scale = clock.scale()
        # Spans outside the call (config validation, save_reports) are not its layers.
        spans = None if tracer is None else [
            s for s in tracer.take() if t0 <= s[2] and s[3] <= t1]
        if not verdict.judge(index, config, reports):
            continue
        sample = {"run_s": t1 - t0, "wall_s": t2 - t0, "scale": scale}
        if spans is not None:
            sample["spans"] = [(f"{layer}.{name}", start - t0, end - t0, size)
                               for layer, name, start, end, size in spans]
            sample["layers"], sample["functions"] = layer_metrics(spans, t1 - t0, scale)
            sample["layers"].update({
                "harness.write_s": (t2 - t1) * scale,
                "harness.report_bytes": sum(os.path.getsize(p) for p in paths),
                "harness.skipped_episodes": sum(r.skipped_episodes for r in reports),
            })
        samples.append(sample)
    return samples


def median_sample(samples: list[dict]) -> dict:
    """The sample with the median run time (lower median), so its layers add up."""
    ordered = sorted(samples, key=lambda s: s["run_s"])
    return ordered[(len(ordered) - 1) // 2]


def scaled_median(samples, key):
    return statistics.median(s[key] * s["scale"] for s in samples)


def traced_layers(rnnp, configs, seconds, verdict, out_dir, clock, untraced_wall, spans_file):
    """Per-layer metrics from a traced replay of the workload; writes its spans."""
    harness = sys.modules["rnnp.harness"]
    workers = configs[0].workers
    with Tracer(harness) as tracer:
        traced = timed_calls(rnnp, configs, seconds, verdict, out_dir, clock, tracer)
        serial = None
        if workers > 1:
            # Spans inside pool workers are lost: the module layers come from
            # a workers=1 pass over slice 0, which also gives the serial
            # episode time.
            serial = timed_calls(rnnp, [replace(configs[0], workers=1)], 0, verdict, out_dir,
                                 clock, tracer)
    if not traced:
        return {}, {}
    pick = median_sample(traced)
    write_spans(spans_file, [(pick, workers)] + [(s, 1) for s in serial or []])
    layers = dict(pick["layers"])
    functions = pick["functions"]
    if serial:
        one = serial[0]["layers"]
        for key, value in one.items():
            if key.split(".")[0] in ("episodes", "nnp", "refine"):
                layers[key] = value
        functions = {**serial[0]["functions"], **functions}
        serial_loop_s = one["harness.run_s"] - one["datagen.load_s"] - one["metrics.aggregate_s"]
        layers["harness.parallel_efficiency"] = serial_loop_s / (workers * layers["harness.pool_s"])
    layers["trace.overhead_s"] = scaled_median(traced, "wall_s") - untraced_wall
    return layers, functions


def write_spans(path: str, calls) -> None:
    """Write the spans of traced calls, given as (sample, workers) pairs.

    Times are raw seconds from the start of the call. Every span's parent
    is its run_experiment call, as spans do not nest.
    """
    out = []
    for sample, workers in calls:
        call = {"name": "harness.run_experiment", "start": 0.0, "end": sample["run_s"],
                "workers": workers, "scale": sample["scale"]}
        out.append({"call": call, "spans": [
            {"name": name, "start": start, "end": end, "parent": call["name"], "size": size}
            for name, start, end, size in sample["spans"]]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "platform": platform.platform(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus `workers` times its largest child's peak.

    With workers > 1 this is an upper bound: pool workers are forked, so a
    worker's peak includes the pages it shares copy-on-write with this
    process, whose footprint is then counted 1 + workers times.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (workers * child if workers > 1 else 0)) / 1024.0


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(args) -> int:
    bench = load_bench()
    tiny = args.tiny
    episodes, slices = sizes(args.workload, tiny)
    csv_path = ref_csv = None
    if args.workload == "csv-ingest":
        rows = TINY_CSV_ROWS if tiny else CSV_ROWS
        csv_path, ref_csv = ensure_csvs((args.seed, rows), (0, TINY_CSV_ROWS))
    clock = None
    verdict = Verdict()
    out_dir = os.path.join(CACHE, f"out-{os.getpid()}")
    spans_file = os.path.join(CACHE, f"spans-{args.workload}.json")
    try:
        rnnp, config, pool, setup_times = measure_setup(
            lambda pkg: make_config(pkg, args.workload, args.seed, episodes, csv_path))
        clock = Clock(config.workers, repeats=4) if config.workers > 1 else Clock()
        configs = [replace(config, seed=config.seed + k * episodes) for k in range(slices)]
        samples = timed_calls(rnnp, configs, args.seconds, verdict, out_dir, clock)
        record = load_record(args.workload)
        verdict.attempted += 1
        ref_digest, problems = reference_call(rnnp, args.workload, ref_csv)
        digests = {"reference_sha256": ref_digest}
        verdict.fail(problems + digest_problems(record, digests))
        values = {}
        if len(verdict.reference) == slices:
            # Checks of each slice's first call; a failure counts one more failed call.
            values = quality(rnnp, configs, verdict.reference)
            try:
                problems = library_problems(rnnp, pool, config, verdict.reference[0])
            except Exception as exc:  # a crash of the per-query path is a failed check
                problems = [f"per-query check raised {type(exc).__name__}: {exc}"]
            if csv_path is not None and pool.features.shape[0] != rows:
                problems.append(f"csv pool has {pool.features.shape[0]} rows, wrote {rows}")
            if not tiny:
                problems += quality_problems(record, values, bench)
                # The full-size record exists for the sizes of 2 cores; paper-wN
                # elsewhere has other slices and relies on the reference call.
                key = f"slices_sha256_{episodes}x{slices}"
                if args.seed == 0:
                    digests[key] = digest([verdict.reference[k] for k in range(slices)])
                    if key in record:
                        problems += digest_problems(record, {key: digests[key]})
            verdict.fail(problems)
        if samples:
            values.update(
                wall_s=scaled_median(samples, "wall_s"),
                episodes_per_s=episodes / scaled_median(samples, "run_s"),
                raw_wall_s=statistics.median(s["wall_s"] for s in samples),
            )
        values.update(setup_s=statistics.median(scaled for _, scaled in setup_times),
                      raw_setup_s=statistics.median(raw for raw, _ in setup_times),
                      peak_rss_mb=peak_rss_mb(config.workers))
        functions = {}
        if args.trace:
            layers, functions = traced_layers(rnnp, configs, args.seconds, verdict, out_dir,
                                              clock, values.get("wall_s", 0.0), spans_file)
            values.update(layers)
    finally:
        if clock is not None:
            clock.close()
        shutil.rmtree(out_dir, ignore_errors=True)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    correct = verdict.failed == 0 and len(metrics) == len(wanted)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    detail = {
        "workload": args.workload, "seed": args.seed, "seeds": seeds(args.seed),
        "trace": args.trace, "tiny": tiny, "episodes_per_call": episodes, "slices": slices,
        "workers": config.workers, "samples": len(samples), "setup_times": setup_times,
        "calibration_s": clock.chunks,
        "spans_file": os.path.relpath(spans_file, ROOT) if args.trace else None,
        "error_rate": verdict.failed / verdict.attempted if verdict.attempted else 1.0,
        "errors": verdict.errors, "missing_metrics": missing, "digests": digests,
        "machine": machine_facts(), "values": values, "functions": functions,
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": verdict.attempted,
                      "failed": verdict.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced and traced, one subprocess each, as a table."""
    all_ok = True
    print(f"{'workload':12s} {'trace':5s} {'metric':28s} {'value':>16s}  unit")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload:12s} {trace:<5d} run failed (exit {proc.returncode}):\n"
                      f"{proc.stderr}")
                all_ok = False
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            shown = dict(result["metrics"])
            shown.update({name: {"value": detail["values"][name], "unit": unit}
                          for name, unit in UNLISTED.items() if name in detail["values"]})
            for name, m in shown.items():
                print(f"{workload:12s} {trace:<5d} {name:28s} {m['value']:16.6g}  {m['unit']}")
            print(f"{workload:12s} {trace:<5d} {'correct':28s} {str(result['correct']):>16s}")
            print(f"{workload:12s} {trace:<5d} {'error_rate':28s} "
                  f"{detail['error_rate']:16.6g}  fraction "
                  f"({result['failed']}/{result['attempted']})")
            for err in detail["errors"]:
                print(f"{workload:12s} {trace:<5d} error: {err}")
            all_ok = all_ok and result["correct"]
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help=f"{TINY_SIZE[0]} episodes per call and a {TINY_CSV_ROWS}-row "
                             "CSV; skips the check against the recorded quality metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "rnnp", "__init__.py")):
        print(f"error: no rnnp package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
