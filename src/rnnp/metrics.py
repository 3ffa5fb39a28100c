"""Accuracy aggregation in the usual episodic-reporting form.

Per-episode accuracies roll up into a mean with a normal-approximation
95% confidence half-width (1.96 * sample std / sqrt(n)). Method
comparisons are paired: both reports must come from identical episode
streams, and the delta is aggregated per episode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidInputError

Z_95 = 1.96


def episode_accuracy(predictions, query_labels) -> float:
    """Fraction of predictions equal to the labels."""
    preds = np.asarray(predictions)
    labels = np.asarray(query_labels)
    if preds.ndim != 1 or preds.shape != labels.shape:
        raise InvalidInputError(
            f"predictions and labels must be equal-length 1-D, got {preds.shape} vs {labels.shape}"
        )
    if preds.size == 0:
        raise InvalidInputError("empty query set")
    return float(np.mean(preds == labels))


def mean_ci95(values) -> tuple[float, float]:
    """(mean, half-width of the 95% normal-approximation CI).

    The half-width is 1.96 * s / sqrt(n) with s the sample standard
    deviation (n-1 denominator). Needs at least two values.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise InvalidInputError(f"need a 1-D list of at least 2 values, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("values contain NaN or Inf")
    mean = float(arr.mean())
    ci = float(Z_95 * arr.std(ddof=1) / math.sqrt(arr.shape[0]))
    return mean, ci


@dataclass
class EvalReport:
    """Aggregate of one (method, corruption rate) evaluation.

    per_episode_rectification, when present, holds the [before, after]
    numbers of supports with correct labels per evaluated episode;
    rectification holds their means and, like n_episodes, is derived from
    the per-episode list. episode_indices records which episode indices
    were evaluated (skipped ones are absent but counted in
    skipped_episodes).
    """

    method: str
    corruption_rate: float
    n_way: int
    k_shot: int
    queries_per_class: int
    per_episode_accuracies: list
    mean_accuracy: float
    ci95: float
    skipped_episodes: int
    config: dict
    per_episode_rectification: list | None = None
    episode_indices: list | None = None
    n_episodes: int = field(init=False)
    rectification: dict | None = field(init=False)

    def __post_init__(self):
        accs = [float(a) for a in self.per_episode_accuracies]
        if len(accs) < 2:
            raise InvalidInputError("a report needs at least 2 evaluated episodes")
        if any(not 0.0 <= a <= 1.0 for a in accs):
            raise InvalidInputError("per-episode accuracies must lie in [0, 1]")
        mean, ci = mean_ci95(accs)
        if abs(mean - self.mean_accuracy) > 1e-12 or abs(ci - self.ci95) > 1e-12:
            raise InvalidInputError("mean_accuracy/ci95 do not match the per-episode list")
        if self.ci95 < 0.0:
            raise InvalidInputError("ci95 must be non-negative")
        if self.skipped_episodes < 0:
            raise InvalidInputError("skipped_episodes must be non-negative")
        rect = self.per_episode_rectification
        if rect is not None and len(rect) != len(accs):
            raise InvalidInputError("per_episode_rectification needs one pair per episode")
        self.per_episode_accuracies = accs
        self.n_episodes = len(accs)
        self.rectification = None if rect is None else {
            "mean_correct_before": float(np.mean([r[0] for r in rect])),
            "mean_correct_after": float(np.mean([r[1] for r in rect])),
        }

    @classmethod
    def from_accuracies(cls, method, corruption_rate, n_way, k_shot, queries_per_class,
                        per_episode_accuracies, skipped_episodes, config,
                        per_episode_rectification=None, episode_indices=None) -> "EvalReport":
        mean, ci = mean_ci95(per_episode_accuracies)
        return cls(
            method=method, corruption_rate=corruption_rate, n_way=n_way, k_shot=k_shot,
            queries_per_class=queries_per_class,
            per_episode_accuracies=list(per_episode_accuracies),
            mean_accuracy=mean, ci95=ci, skipped_episodes=skipped_episodes,
            config=dict(config), per_episode_rectification=per_episode_rectification,
            episode_indices=episode_indices,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "EvalReport":
        """The report a to_dict() gave; derived fields it stores (n_episodes,
        rectification) must equal the ones the per-episode lists give."""
        d = dict(d)
        stored = {f.name: d.pop(f.name) for f in fields(cls) if not f.init and f.name in d}
        report = cls(**d)
        wrong = sorted(k for k, v in stored.items() if v != getattr(report, k))
        if wrong:
            raise InvalidInputError(f"stored {wrong} do not match the per-episode lists")
        return report


def paired_delta(report_a: EvalReport, report_b: EvalReport) -> tuple[float, float, float]:
    """Per-episode accuracy difference a - b: (mean, ci95, win rate).

    Requires paired reports: equal episode counts from the same base seed
    (identical episode streams). The win rate is the fraction of episodes
    where a is strictly better.
    """
    if report_a.n_episodes != report_b.n_episodes:
        raise InvalidInputError("reports cover different episode counts; not paired")
    if report_a.config.get("seed") != report_b.config.get("seed"):
        raise InvalidInputError("reports come from different base seeds; not paired")
    if report_a.episode_indices != report_b.episode_indices:
        raise InvalidInputError("reports cover different episode indices; not paired")
    a = np.asarray(report_a.per_episode_accuracies)
    b = np.asarray(report_b.per_episode_accuracies)
    deltas = a - b
    mean, ci = mean_ci95(deltas)
    return mean, ci, float(np.mean(deltas > 0.0))


def reports_to_csv(reports) -> str:
    """Flat summary table, one row per report."""
    lines = ["method,corruption_rate,k_shot,mean,ci95,n_episodes"]
    for r in reports:
        lines.append(
            f"{r.method},{r.corruption_rate!r},{r.k_shot},{r.mean_accuracy!r},{r.ci95!r},{r.n_episodes}"
        )
    return "\n".join(lines) + "\n"
