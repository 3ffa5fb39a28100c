"""Experiment orchestration: paired method evaluation over many episodes.

One run samples n_episodes episodes (seeds seed+i), corrupts each at every
requested rate (corruption seeds come from a separate stream, (seed XOR a
fixed salt) + i, so changing the rate never reshuffles episode
composition), evaluates every configured method on bit-identical inputs,
and aggregates per (method, rate). Workers parallelize across episodes;
results are collected in episode-index order, so the worker count never
changes any output value.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .datagen import MixtureSpec, generate_mixture, load_embeddings
from .episodes import (CorruptionSpec, EmbeddingSet, Episode, _check_int, _check_real,
                       _check_size, _check_type, _checked, _corrupted_per_class, corrupt_labels,
                       sample_episode)
from .errors import DegenerateClassError, InvalidInputError
from .metrics import EvalReport, episode_accuracy
from .nnp import _pairwise_raw, compute_prototypes
from .refine import RnnpConfig, _check_partners, _refine_queries, _span_episode

CORRUPTION_SEED_SALT = 0x9E3779B97F4A7C15

SWEEP_AXES = ("alpha", "beta", "iterations")
METHOD_NAMES = ("nnp", "rnnp")


@dataclass(frozen=True)
class MethodSpec:
    """One evaluated method: the baseline or a refinement variant. label (by
    default the method) names its reports, unquoted in report.csv."""

    method: str
    rnnp: RnnpConfig | None = None
    label: str | None = None

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise InvalidInputError(f"method must be one of {METHOD_NAMES}, got {self.method!r}")
        if self.method == "rnnp":
            _check_type("rnnp", self.rnnp, RnnpConfig)
        elif self.rnnp is not None:
            raise InvalidInputError(f"method 'nnp' takes no hyper-parameters, got {self.rnnp!r}")
        if self.label is None:
            object.__setattr__(self, "label", self.method)
        _check_type("label", self.label, str)
        if any(c in self.label for c in ',"\r\n'):
            raise InvalidInputError(f"label {self.label!r} holds a comma, double quote, CR or LF")

    def to_dict(self) -> dict:
        d = {"method": self.method, "label": self.label}
        if self.rnnp is not None:
            d.update(asdict(self.rnnp))
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MethodSpec":
        if not isinstance(d, dict):
            raise InvalidInputError(f"a method must be a JSON object, got {type(d).__name__}")
        rnnp = dict(d)
        method, label = rnnp.pop("method", None), rnnp.pop("label", None)
        if method == "rnnp":
            try:
                rnnp = RnnpConfig(**rnnp)
            except TypeError as exc:
                raise InvalidInputError(f"bad rnnp method keys: {exc}") from exc
        return cls(method=method, rnnp=rnnp or None, label=label)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs; JSON config files mirror it field-for-field.

    workers is a runtime knob: it never influences results, so to_dict
    leaves it out and equality and hashing ignore it.
    """

    methods: tuple
    mixture: MixtureSpec | None = None
    data_path: str | None = None
    data_format: str | None = None
    n_way: int = 5
    k_shot: int = 5
    queries_per_class: int = 15
    n_episodes: int = 1000
    corruption_rates: tuple = (0.0, 0.2, 0.4)
    seed: int = 7
    workers: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.mixture is None) == (self.data_path is None):
            raise InvalidInputError("exactly one of mixture / data_path must be set")
        if self.data_path is not None:
            # An integer would be opened as a file descriptor; a path object is
            # stored as its string, which report.json can hold.
            path = os.fspath(self.data_path) if isinstance(self.data_path, os.PathLike) \
                else self.data_path
            if not isinstance(path, str):
                raise InvalidInputError(f"data_path must be a str path, got {self.data_path!r}")
            if "\0" in path:
                raise InvalidInputError(f"data_path {path!r} holds a NUL byte, which no file "
                                        "name can")
            object.__setattr__(self, "data_path", path)
        if self.data_format != ("csv" if self.data_path is not None else None):
            raise InvalidInputError("data_format must be 'csv' with a data_path and unset "
                                    f"without one, got {self.data_format!r}")
        for name, lo in (("n_way", 2), ("k_shot", 1), ("queries_per_class", 1), ("n_episodes", 2),
                         ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo))
        if self.workers is not None:
            object.__setattr__(self, "workers", _check_int("workers", self.workers, 1))

        if self.mixture is not None:
            _check_type("mixture", self.mixture, MixtureSpec)
        try:
            methods = tuple(_check_type("methods", m, MethodSpec) for m in self.methods)
        except TypeError as exc:  # not iterable
            raise InvalidInputError(
                f"expected methods of type tuple, got {type(self.methods).__name__}") from exc
        if not methods:
            raise InvalidInputError("methods must not be empty")
        labels = [m.label for m in methods]
        if len(set(labels)) != len(labels):
            raise InvalidInputError(f"duplicate method labels: {labels}")
        for m in methods:
            if m.method == "rnnp":
                _check_partners(m.rnnp, self.k_shot)
        object.__setattr__(self, "methods", methods)

        rates = self.corruption_rates
        if not isinstance(rates, (list, tuple)) or not rates:
            raise InvalidInputError(
                f"corruption_rates must be a non-empty list of numbers, got {rates!r}")
        rates = tuple(_check_real(f"corruption_rates[{i}]", r, 0.0, 1.0, False)
                      for i, r in enumerate(rates))
        if len(set(rates)) != len(rates):
            raise InvalidInputError(f"duplicate corruption rates: {list(rates)}")
        for r in rates:
            _corrupted_per_class(r, self.k_shot)
        object.__setattr__(self, "corruption_rates", rates)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self) if f.compare}
        d.update(mixture=None if self.mixture is None else asdict(self.mixture),
                 corruption_rates=list(self.corruption_rates),
                 methods=[m.to_dict() for m in self.methods])
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise InvalidInputError(f"config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        if d.get("mixture") is not None:
            try:
                d["mixture"] = MixtureSpec(**d["mixture"])
            except TypeError as exc:
                raise InvalidInputError(f"bad mixture keys: {exc}") from exc
        if not isinstance(d.get("methods"), list):
            raise InvalidInputError("config needs 'methods', a list of method objects")
        d["methods"] = tuple(MethodSpec.from_dict(m) for m in d["methods"])
        return cls(**d)


def default_config(**overrides) -> ExperimentConfig:
    """The benchmark setup: 20-class dim-64 mixture, baseline vs refinement."""
    base = dict(
        # separation: mean pairwise class-mean distance, in within-class standard deviations,
        # at which clean 5-shot 5-way accuracy lands in the 80-90% band (0.887 over 1000 episodes).
        mixture=MixtureSpec(num_classes=20, dim=64, separation=5.25,
                            samples_per_class=50, seed=11),
        methods=(
            MethodSpec(method="nnp"),
            MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=4)),
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def load_pool(config: ExperimentConfig) -> EmbeddingSet:
    _check_type("config", config, ExperimentConfig)
    if config.mixture is not None:
        return generate_mixture(config.mixture)
    return load_embeddings(config.data_path)


def _evaluate_episode(pool: EmbeddingSet, config: ExperimentConfig, index: int) -> list:
    """Every method's result at every rate for one episode index.

    One entry per corruption rate, in config order: None marks a degenerate
    corruption (some class lost every observed support), which skips the
    episode for every method at that rate; otherwise one (accuracy,
    rectification) pair per method in config.methods order, where
    rectification is [correct_before, mean correct_after] for rnnp and
    None for nnp.

    The episode is projected once into its supports' span (_span_episode),
    and every rate and method runs on that span episode: corruption, class
    means, the nnp baseline and blend-hybrid refinement. gaussian_noise
    hybrids leave the span, so they get the R^d episode and class means
    under the rate's observed labels. rnnp runs classify_rnnp's unchecked step.
    """
    episode = sample_episode(pool, config.n_way, config.k_shot,
                             config.queries_per_class, config.seed + index)
    corr_seed = (config.seed ^ CORRUPTION_SEED_SALT) + index
    noise = [m.rnnp is not None and m.rnnp.hybrid_source == "gaussian_noise"
             for m in config.methods]
    work = _span_episode(episode)
    out = []
    for rate in config.corruption_rates:
        corrupted = corrupt_labels(work, CorruptionSpec(rate=rate, seed=corr_seed))
        try:
            protos = compute_prototypes(corrupted, "observed")
        except DegenerateClassError:
            out.append(None)
            continue
        full, full_protos = corrupted, protos
        if work is not episode and any(noise):
            full = _checked(Episode, **{**vars(episode), "support_observed_labels":
                                        corrupted.support_observed_labels})
            full_protos = compute_prototypes(full, "observed")
        before = int(np.sum(corrupted.support_observed_labels == corrupted.support_true_labels))
        cells = []
        for m, in_full in zip(config.methods, noise):
            ep, centers = (full, full_protos) if in_full else (corrupted, protos)
            rectification = None
            if m.method == "rnnp":
                centers, resp = _refine_queries(ep, ep.query_features, m.rnnp, centers)
                rectified = np.argmax(resp, axis=1) == ep.support_true_labels
                rectification = [before, float(np.mean(np.sum(rectified, axis=1)))]
            preds = np.argmin(_pairwise_raw(ep.query_features, centers), axis=1)
            cells.append((episode_accuracy(preds, ep.query_labels), rectification))
        out.append(cells)
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on; os.cpu_count() counts every CPU of the
    machine, including ones the affinity mask excludes."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_WORKER_POOL = None
_WORKER_CONFIG = None


def _openblas_function(name: str):
    """The function name of the scipy-openblas library that numpy's wheels
    bundle under numpy.libs/, or None: a numpy built on another BLAS (a
    system OpenBLAS, MKL, Accelerate) has no such library."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    try:
        names = sorted(f for f in os.listdir(libs) if f.startswith("libscipy_openblas"))
    except OSError:
        return None
    for lib in names:
        if (fn := getattr(ctypes.CDLL(os.path.join(libs, lib)), name, None)) is not None:
            return fn
    return None


def _init_worker(pool, config):
    global _WORKER_POOL, _WORKER_CONFIG
    _WORKER_POOL = pool
    _WORKER_CONFIG = config
    # A worker's matrix products are small, and C workers each at one BLAS
    # thread per core would run C² threads on C cores. Only this worker
    # process changes; the caller keeps its own setting.
    if (set_threads := _openblas_function("scipy_openblas_set_num_threads64_")) is not None:
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _worker_task(index):
    return _evaluate_episode(_WORKER_POOL, _WORKER_CONFIG, index)


def run_experiment(config: ExperimentConfig) -> list:
    """Evaluate every configured method at every corruption rate.

    Reports come back method-major (all rates of the first method, then
    the second, ...).
    """
    return _run_on_pool(config, load_pool(config))


def _run_on_pool(config: ExperimentConfig, pool: EmbeddingSet) -> list:
    """run_experiment on a pool already loaded for this config."""
    n = config.n_episodes
    # Hybrids are refused by their size in R^d, whatever coordinates they are built in.
    beta = max((m.rnnp.beta for m in config.methods if m.rnnp is not None), default=0)
    _check_size(f"beta={beta}", config.n_way * config.k_shot * beta, pool.dim)
    # workers is an upper bound: never start more processes than there are
    # episodes to run or CPUs to run them on.
    workers = min(config.workers or n, n, _usable_cpus())
    if workers <= 1 or n < 4:
        rows = [_evaluate_episode(pool, config, i) for i in range(n)]
    else:
        # Refuse a pool that cannot give an episode before any worker starts.
        sample_episode(pool, config.n_way, config.k_shot, config.queries_per_class, config.seed)
        chunk = max(1, n // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(pool, config)) as ex:
            rows = list(ex.map(_worker_task, range(n), chunksize=chunk))

    reports = []
    for k, m in enumerate(config.methods):
        for j, rate in enumerate(config.corruption_rates):
            kept = [(i, row[j][k]) for i, row in enumerate(rows) if row[j] is not None]
            if len(kept) < 2:
                raise InvalidInputError(f"rate {rate}: only {len(kept)} evaluable episodes; "
                                        "need at least 2 to aggregate")
            reports.append(EvalReport.from_accuracies(
                method=m.label, corruption_rate=rate, n_way=config.n_way,
                k_shot=config.k_shot, queries_per_class=config.queries_per_class,
                per_episode_accuracies=[acc for _, (acc, _) in kept],
                skipped_episodes=n - len(kept), seed=config.seed,
                per_episode_rectification=None if m.method == "nnp" else [r for _, (_, r) in kept],
                episode_indices=[i for i, _ in kept],
            ))
    return reports


def run_sweep(config: ExperimentConfig, sweep_axis: str, values) -> list:
    """One report per value of alpha, beta, or iterations; streams stay paired.

    Needs a single rnnp method and a single corruption rate, so the
    emitted table is unambiguous about what varied. Every value is one
    method of a single run, labeled with the value's repr, so each episode
    is sampled, corrupted and given prototypes once for all values, and a
    repeated value is refused as a duplicate label before any episode runs.
    """
    if sweep_axis not in SWEEP_AXES:
        raise InvalidInputError(f"sweep_axis must be one of {SWEEP_AXES}, got {sweep_axis!r}")
    values = list(values)
    if not values:
        raise InvalidInputError("sweep needs at least one value")
    _check_type("config", config, ExperimentConfig)
    if len(config.methods) != 1 or config.methods[0].method != "rnnp":
        raise InvalidInputError("sweep needs exactly one configured method, of type rnnp")
    if len(config.corruption_rates) != 1:
        raise InvalidInputError("sweep needs exactly one corruption rate")
    method = config.methods[0]
    swept = []
    for v in values:
        v = _check_real(f"{sweep_axis} value", v, -math.inf, math.inf, False)
        if sweep_axis != "alpha":
            if not v.is_integer():
                raise InvalidInputError(f"{sweep_axis} values must be integers, got {v}")
            v = int(v)
        swept.append(replace(method, label=repr(v),
                             rnnp=replace(method.rnnp, **{sweep_axis: v})))
    return _run_on_pool(replace(config, methods=tuple(swept)), load_pool(config))


def _write(out_dir, name: str, text: str) -> str:
    """Write text to out_dir/name as UTF-8 with LF line ends; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def save_reports(config: ExperimentConfig, reports, out_dir) -> tuple[str, str]:
    """Write report.json (full) and report.csv (flat, one row per report) into out_dir."""
    config = _check_type("config", config, ExperimentConfig)
    reports = [_check_type("report", r, EvalReport) for r in reports]
    payload = {"config": config.to_dict(), "reports": [r.to_dict() for r in reports]}
    lines = ["method,corruption_rate,k_shot,mean,ci95,n_episodes"]
    lines += [f"{r.method},{r.corruption_rate!r},{r.k_shot},{r.mean_accuracy!r},{r.ci95!r},"
              f"{r.n_episodes}" for r in reports]
    return (_write(out_dir, "report.json", json.dumps(payload, sort_keys=True, indent=2) + "\n"),
            _write(out_dir, "report.csv", "\n".join(lines) + "\n"))


def save_sweep(sweep_axis: str, reports, out_dir) -> str:
    """Write sweep_<axis>.csv: one value,mean,ci95 row per run_sweep report."""
    _check_type("sweep_axis", sweep_axis, str)
    if sweep_axis not in SWEEP_AXES:
        raise InvalidInputError(f"sweep_axis must be one of {SWEEP_AXES}, got {sweep_axis!r}")
    reports = [_check_type("report", r, EvalReport) for r in reports]
    lines = ["value,mean,ci95"]
    lines += [f"{r.method},{r.mean_accuracy!r},{r.ci95!r}" for r in reports]
    return _write(out_dir, f"sweep_{sweep_axis}.csv", "\n".join(lines) + "\n")


def save_rectification(report: EvalReport, out_dir) -> str:
    """Write rectification.csv: an rnnp report's correct-label counts per episode, then means."""
    _check_type("report", report, EvalReport)
    if report.per_episode_rectification is None:
        raise InvalidInputError("rectification needs an rnnp report")
    lines = ["episode_index,correct_before,correct_after"]
    lines += [f"{i},{int(before)},{float(after)!r}" for i, (before, after) in
              zip(report.episode_indices, report.per_episode_rectification)]
    rect = report.rectification
    lines.append(f"mean,{rect['mean_correct_before']!r},{rect['mean_correct_after']!r}")
    return _write(out_dir, "rectification.csv", "\n".join(lines) + "\n")
