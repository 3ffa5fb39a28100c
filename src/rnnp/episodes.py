"""Episode sampling and label corruption.

An episode is an N-way K-shot task: for each of N classes, K labeled
support examples plus a held-out query set, all drawn without replacement
from a labeled embedding pool. Corruption replaces the observed label of
a fixed number of supports per class with a different class from the same
episode; the true labels are kept alongside for scoring and analysis.

Episode classes are indexed 0..N-1 in the order they were drawn from the
pool. Pool labels may be arbitrary integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .vecmath import as_matrix


def _check_int(name: str, value, lo: int) -> int:
    """value as a Python int; bool and non-integers or values below lo are errors."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < lo:
        raise InvalidInputError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _check_size(what: str, rows: int, cols: int) -> None:
    """InvalidInputError naming `what` (the fields that set the shape) when a
    (rows, cols) float64 array is larger than numpy can allocate: its byte
    count must fit in np.intp."""
    if rows * cols * 8 > np.iinfo(np.intp).max:
        raise InvalidInputError(
            f"{what} asks for a {rows} x {cols} float64 array, larger than numpy can allocate")


@dataclass(frozen=True)
class EmbeddingSet:
    """Immutable pool of labeled feature vectors.

    Attributes:
        features: (M, d) float64 array, one embedding per row.
        labels: (M,) int64 array of class identifiers (any integers).
        class_index: mapping from class id to the ascending row indices of
            its members; built automatically.
        class_means: optional mapping from class id to the true generating
            mean, populated by the synthetic generator and absent for
            loaded data.
    """

    features: np.ndarray
    labels: np.ndarray
    class_means: dict | None = None
    class_index: dict = field(init=False)

    def __post_init__(self):
        feats = as_matrix(self.features).copy()
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise InvalidInputError(
                f"expected {feats.shape[0]} labels, got shape {labels.shape}"
            )
        if not np.issubdtype(labels.dtype, np.integer):
            raise InvalidInputError("labels must be integers")
        labels = labels.astype(np.int64, copy=True)
        feats.setflags(write=False)
        labels.setflags(write=False)
        index = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
        for rows in index.values():
            rows.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_index", index)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_index)


@dataclass(frozen=True)
class Episode:
    """One N-way K-shot task with true and observed support labels.

    Support rows are grouped by true label: rows [c*K, (c+1)*K) belong to
    episode class c when produced by sample_episode. All labels are
    episode-class ids in 0..n_way-1. `seed` records the sampling seed;
    downstream seeded choices mix it in so distinct episodes get
    distinct streams.
    """

    n_way: int
    k_shot: int
    support_features: np.ndarray
    support_true_labels: np.ndarray
    support_observed_labels: np.ndarray
    query_features: np.ndarray
    query_labels: np.ndarray
    seed: int = 0

    def __post_init__(self):
        for name, lo in (("n_way", 2), ("k_shot", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo))
        n, k = self.n_way, self.k_shot

        sup = as_matrix(self.support_features).copy()
        qry = as_matrix(self.query_features).copy()
        if sup.shape[1] != qry.shape[1]:
            raise InvalidInputError("support and query dimensions differ")
        true = self._label_array(self.support_true_labels, sup.shape[0], "support_true_labels")
        obs = self._label_array(self.support_observed_labels, sup.shape[0], "support_observed_labels")
        qlab = self._label_array(self.query_labels, qry.shape[0], "query_labels")

        if sup.shape[0] != n * k:
            raise InvalidInputError(f"expected {n * k} support rows, got {sup.shape[0]}")
        counts = np.bincount(true, minlength=n)
        if not np.all(counts == k):
            raise InvalidInputError(f"expected exactly {k} supports per class, got counts {counts.tolist()}")

        for arr in (sup, qry, true, obs, qlab):
            arr.setflags(write=False)
        object.__setattr__(self, "support_features", sup)
        object.__setattr__(self, "query_features", qry)
        object.__setattr__(self, "support_true_labels", true)
        object.__setattr__(self, "support_observed_labels", obs)
        object.__setattr__(self, "query_labels", qlab)

    def _label_array(self, values, expected_len: int, name: str) -> np.ndarray:
        arr = np.asarray(values)
        if arr.ndim != 1 or arr.shape[0] != expected_len:
            raise InvalidInputError(f"{name}: expected {expected_len} entries, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            raise InvalidInputError(f"{name}: labels must be integers")
        arr = arr.astype(np.int64, copy=True)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_way):
            raise InvalidInputError(f"{name}: labels must lie in 0..{self.n_way - 1}")
        return arr

    @property
    def dim(self) -> int:
        return self.support_features.shape[1]


@dataclass(frozen=True)
class CorruptionSpec:
    """Corruption rate plus the seed that fixes which slots get rewritten.

    rate * k_shot must be an integer for the episode being corrupted: the
    protocol corrupts exactly that many supports in every class.
    """

    rate: float
    seed: int

    def __post_init__(self):
        if not isinstance(self.rate, (int, float)) or isinstance(self.rate, bool):
            raise InvalidInputError(f"rate must be a real number, got {self.rate!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise InvalidInputError(f"rate must lie in [0, 1], got {self.rate}")
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "seed", _check_int("seed", self.seed, 0))


def sample_episode(pool: EmbeddingSet, n_way: int, k_shot: int,
                   queries_per_class: int, seed: int) -> Episode:
    """Draw an uncorrupted N-way K-shot episode from a pool.

    Randomized choices, in stream order from np.random.default_rng(seed):

    1. class pick: rng.permutation(num_classes)[:n_way] indexes into the
       ascending-sorted pool class ids; picked order defines episode
       classes 0..n_way-1;
    2. per episode class, in that order: rng.permutation(members)[:k+q]
       over that class's ascending member rows; the first k become
       supports, the next q become queries.

    Support and query rows are grouped by class (class-major). Observed
    labels start equal to true labels.

    Raises:
        InvalidInputError: fewer than n_way classes, or any pool class
            with fewer than k_shot + queries_per_class members.
    """
    n_way = _check_int("n_way", n_way, 2)
    k_shot = _check_int("k_shot", k_shot, 1)
    queries_per_class = _check_int("queries_per_class", queries_per_class, 1)
    seed = _check_int("seed", seed, 0)

    classes = sorted(pool.class_index)
    if len(classes) < n_way:
        raise InvalidInputError(f"pool has {len(classes)} classes, episode needs {n_way}")
    need = k_shot + queries_per_class
    for c in classes:
        if len(pool.class_index[c]) < need:
            raise InvalidInputError(f"class {c} has {len(pool.class_index[c])} members, episode needs {need}")

    rng = np.random.default_rng(seed)
    pick = rng.permutation(len(classes))[:n_way]

    sup_rows, qry_rows = [], []
    for idx in pick:
        members = pool.class_index[classes[int(idx)]]
        order = rng.permutation(len(members))[:need]
        chosen = members[order]
        sup_rows.append(chosen[:k_shot])
        qry_rows.append(chosen[k_shot:])
    sup_rows = np.concatenate(sup_rows)
    qry_rows = np.concatenate(qry_rows)

    true = np.repeat(np.arange(n_way, dtype=np.int64), k_shot)
    qlab = np.repeat(np.arange(n_way, dtype=np.int64), queries_per_class)
    return Episode(
        n_way=n_way,
        k_shot=k_shot,
        support_features=pool.features[sup_rows],
        support_true_labels=true,
        support_observed_labels=true.copy(),
        query_features=pool.features[qry_rows],
        query_labels=qlab,
        seed=seed,
    )


def corrupt_labels(episode: Episode, spec: CorruptionSpec) -> Episode:
    """Rewrite observed labels of exactly rate*K supports in every class.

    Each rewritten label is drawn uniformly from the other N-1 episode
    classes; features, true labels, and queries are untouched. rate of 0
    returns the episode unchanged.

    Randomized choices, in stream order from np.random.default_rng(spec.seed),
    for each episode class c = 0..N-1:

    1. slots = rng.permutation(K)[:m] indexes into class c's support rows
       taken in row order (m = round(rate*K));
    2. for each slot, in the order produced: r = rng.integers(N-1), and the
       wrong label is r when r < c, else r + 1.

    Raises:
        InvalidInputError: rate*K not an integer (within 1e-9), or the
            episode already has observed != true labels.
    """
    if np.any(episode.support_observed_labels != episode.support_true_labels):
        raise InvalidInputError("corrupt_labels expects an uncorrupted episode")
    exact = spec.rate * episode.k_shot
    m = round(exact)
    if abs(exact - m) > 1e-9:
        raise InvalidInputError(
            f"rate*K must be an integer: rate={spec.rate} K={episode.k_shot} gives {exact}"
        )
    if m == 0:
        return episode

    n, k = episode.n_way, episode.k_shot
    true = episode.support_true_labels
    observed = true.copy()
    rng = np.random.default_rng(spec.seed)
    for c in range(n):
        rows_c = np.flatnonzero(true == c)
        slots = rng.permutation(k)[:m]
        for s in slots:
            r = int(rng.integers(n - 1))
            observed[rows_c[s]] = r if r < c else r + 1
    return Episode(
        n_way=n,
        k_shot=k,
        support_features=episode.support_features,
        support_true_labels=true,
        support_observed_labels=observed,
        query_features=episode.query_features,
        query_labels=episode.query_labels,
        seed=episode.seed,
    )


def count_corrupted(episode: Episode) -> int:
    """Number of supports whose observed label differs from the true label."""
    return int(np.sum(episode.support_observed_labels != episode.support_true_labels))
