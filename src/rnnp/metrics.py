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

from .episodes import _check_int, _check_real, _check_type
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


@dataclass(frozen=True)
class EvalReport:
    """Aggregate of one (method, corruption rate) evaluation.

    seed is the run's base seed. episode_indices records, strictly
    increasing, which episode indices were evaluated (skipped ones are
    absent but counted in skipped_episodes). per_episode_rectification,
    when present, holds the (before, after) numbers of supports with correct
    labels per evaluated episode, each at most n_way * k_shot. mean_accuracy,
    ci95 (mean_ci95 of the per-episode accuracies), n_episodes and
    rectification (the means of the pairs) are derived from the per-episode
    sequences. The report is frozen and stores those sequences as tuples, so
    they cannot go stale; dataclasses.replace derives them again.
    """

    method: str
    corruption_rate: float
    n_way: int
    k_shot: int
    queries_per_class: int
    per_episode_accuracies: tuple
    mean_accuracy: float = field(init=False)
    ci95: float = field(init=False)
    skipped_episodes: int
    seed: int
    episode_indices: tuple
    per_episode_rectification: tuple | None = None
    n_episodes: int = field(init=False)

    def __post_init__(self):
        if not isinstance(self.method, str):
            raise InvalidInputError(f"method must be a string, got {self.method!r}")
        object.__setattr__(self, "corruption_rate",
                           _check_real("corruption_rate", self.corruption_rate, 0.0, 1.0, False))
        for name, lo in (("n_way", 2), ("k_shot", 1), ("queries_per_class", 1),
                         ("skipped_episodes", 0), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo))
        if not isinstance(self.per_episode_accuracies, (list, tuple)):
            raise InvalidInputError("per_episode_accuracies must be a list")
        accs = tuple(_check_real("per-episode accuracy", a, 0.0, 1.0, False)
                     for a in self.per_episode_accuracies)
        mean, ci95 = mean_ci95(accs)
        indices = self.episode_indices
        if not isinstance(indices, (list, tuple)) or len(indices) != len(accs):
            raise InvalidInputError("episode_indices needs one index per evaluated episode")
        indices = tuple(_check_int("episode index", i, 0) for i in indices)
        if any(later <= earlier for earlier, later in zip(indices, indices[1:])):
            raise InvalidInputError("episode_indices must be strictly increasing")
        rect = self.per_episode_rectification
        if rect is not None:
            if not isinstance(rect, (list, tuple)) or len(rect) != len(accs) or any(
                    not isinstance(r, (list, tuple)) or len(r) != 2 for r in rect):
                raise InvalidInputError("per_episode_rectification needs one pair per episode")
            for v in (v for pair in rect for v in pair):
                _check_real("rectification count", v, 0.0, self.n_way * self.k_shot, False)
            rect = tuple(tuple(pair) for pair in rect)
        for name, value in (("per_episode_accuracies", accs), ("mean_accuracy", mean),
                            ("ci95", ci95), ("episode_indices", indices),
                            ("per_episode_rectification", rect), ("n_episodes", len(accs))):
            object.__setattr__(self, name, value)

    @property
    def rectification(self) -> dict | None:
        """The means of the per-episode pairs, as a new dict on every access."""
        rect = self.per_episode_rectification
        return None if rect is None else {
            "mean_correct_before": float(np.mean([r[0] for r in rect])),
            "mean_correct_after": float(np.mean([r[1] for r in rect])),
        }

    @classmethod
    def from_accuracies(cls, method, corruption_rate, n_way, k_shot, queries_per_class,
                        per_episode_accuracies, skipped_episodes, seed, episode_indices,
                        per_episode_rectification=None) -> "EvalReport":
        return cls(
            method=method, corruption_rate=corruption_rate, n_way=n_way, k_shot=k_shot,
            queries_per_class=queries_per_class,
            per_episode_accuracies=list(per_episode_accuracies), skipped_episodes=skipped_episodes,
            seed=seed, episode_indices=episode_indices,
            per_episode_rectification=per_episode_rectification,
        )

    def to_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "rectification": self.rectification}


def paired_delta(report_a: EvalReport, report_b: EvalReport) -> tuple[float, float, float]:
    """Per-episode accuracy difference a - b: (mean, ci95, win rate).

    Requires paired reports: the same episode indices from the same base
    seed (identical episode streams). The win rate is the fraction of
    episodes where a is strictly better.
    """
    _check_type("report_a", report_a, EvalReport)
    _check_type("report_b", report_b, EvalReport)
    if report_a.seed != report_b.seed:
        raise InvalidInputError("reports come from different base seeds; not paired")
    if report_a.episode_indices != report_b.episode_indices:
        raise InvalidInputError("reports cover different episode indices; not paired")
    a = np.asarray(report_a.per_episode_accuracies)
    b = np.asarray(report_b.per_episode_accuracies)
    deltas = a - b
    mean, ci = mean_ci95(deltas)
    return mean, ci, float(np.mean(deltas > 0.0))
