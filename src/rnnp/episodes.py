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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# The largest feature magnitude accepted. A squared distance between such
# features is at most (2e150)^2 = 4e300 per dimension, so distances stay
# finite up to about 10^7 dimensions. Past the limit a few dimensions can
# overflow them, and refinement would compare infinities.
_FEATURE_LIMIT = 1e150
# The limit of arrays that need only be finite: prototypes and traces,
# which are means of features, or of noise drawn around them.
_ANY_FINITE = float(np.finfo(np.float64).max)


def _check_int(name: str, value, lo: int) -> int:
    """value as a Python int; bool and non-integers or values below lo are errors."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < lo:
        raise InvalidInputError(f"{name} must be an integer >= {lo}, got {value!r}")
    return int(value)


def _check_real(name: str, value, lo: float, hi: float, strict: bool) -> float:
    """value as a Python float in [lo, hi], or in (lo, hi) when strict.

    Python and numpy ints and floats qualify; bool, numpy bool, strings and
    other types are errors, and so are NaN, infinities and integers beyond
    float range.
    """
    if not isinstance(value, (int, float, np.integer, np.floating)) or isinstance(value, bool):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError as exc:
        raise InvalidInputError(f"{name} must be finite, got an integer beyond float range") \
            from exc
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x}")
    if not (lo < x < hi if strict else lo <= x <= hi):
        span = f"({lo:g}, {hi:g})" if strict else f"[{lo:g}, {hi:g}]"
        raise InvalidInputError(f"{name} must lie in {span}, got {x}")
    return x + 0.0  # -0.0 becomes 0.0, so both spellings write the same bytes


def _check_type(name: str, value, cls: type):
    """value, if it is a cls; InvalidInputError naming cls otherwise."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"expected {name} of type {cls.__name__}, got {type(value).__name__}")
    return value


def _check_labels(name: str, values, length: int, n: int | None) -> np.ndarray:
    """values as a read-only int64 array of `length` labels, each in 0..n-1
    (any integer when n is None)."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise InvalidInputError(f"{name}: expected {length} labels: {exc}") from exc
    if arr.ndim != 1 or arr.shape[0] != length:
        raise InvalidInputError(f"{name}: expected {length} entries, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InvalidInputError(f"{name}: labels must be integers")
    if arr.dtype.kind == "u" and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise InvalidInputError(f"{name}: labels must fit in int64, got {arr.max()}")
    arr = arr.astype(np.int64, copy=True)
    if n is not None and arr.size and (arr.min() < 0 or arr.max() >= n):
        raise InvalidInputError(f"{name}: labels must lie in 0..{n - 1}")
    arr.setflags(write=False)
    return arr


def _within_limit(arr: np.ndarray, limit: float = _FEATURE_LIMIT) -> bool:
    """Every entry of a non-empty array is at most limit in magnitude, so
    neither NaN nor an infinity."""
    return bool(-limit <= arr.min() and arr.max() <= limit)


def _limit_message(limit: float = _FEATURE_LIMIT) -> str:
    """What an array that fails _within_limit(arr, limit) holds."""
    if limit == _ANY_FINITE:
        return "NaN or Inf"
    return f"NaN or Inf, or beyond {limit:g} in magnitude"


def _real_array(values, what: str) -> np.ndarray:
    """values as numpy reads them, if that is an array of integers or floats;
    InvalidInputError naming `what` for ragged nesting or any other dtype:
    bool, complex, strings, and objects such as integers past uint64."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError) as exc:  # ragged nesting
        raise InvalidInputError(f"expected {what}: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise InvalidInputError(f"expected {what}, got dtype {arr.dtype}")
    return arr


def as_vector(values) -> np.ndarray:
    """values as a non-empty 1-D float64 array whose entries are at most
    _FEATURE_LIMIT in magnitude: a feature vector."""
    vec = np.asarray(_real_array(values, "a real vector"), dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise InvalidInputError(f"expected a non-empty 1-D vector, got shape {vec.shape}")
    if not _within_limit(vec):
        raise InvalidInputError(f"vector contains a value that is {_limit_message()}")
    return vec


def as_matrix(vectors, limit: float = _FEATURE_LIMIT) -> np.ndarray:
    """vectors as a read-only copy: a non-empty 2-D float64 array in C
    order, one row per vector, whose entries are at most limit in
    magnitude (by default the one of features)."""
    mat = np.array(_real_array(vectors, "a stack of real vectors"), dtype=np.float64, order="C")
    if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
        raise InvalidInputError(f"expected a non-empty 2-D stack of vectors, got shape {mat.shape}")
    if not _within_limit(mat, limit):
        raise InvalidInputError(f"matrix contains a value that is {_limit_message(limit)}")
    mat.setflags(write=False)
    return mat


def _corrupted_per_class(rate: float, k_shot: int) -> int:
    """round(rate * k_shot), the supports corruption rewrites in each class;
    InvalidInputError when rate * k_shot is not an integer within 1e-9."""
    exact = rate * k_shot
    m = round(exact)
    if abs(exact - m) > 1e-9:
        raise InvalidInputError(f"rate*K must be an integer: rate={rate} K={k_shot} gives {exact}")
    return m


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

    The constructor checks the caller's arrays and stores read-only copies;
    load_embeddings's features and labels are read-only views of its parsed table.

    Attributes:
        features: (M, d) float64 array, one embedding per row.
        labels: (M,) int64 array of class identifiers (any integers).
        class_index: mapping from class id, ascending, to the ascending row
            indices of its members; built automatically.
    """

    features: np.ndarray
    labels: np.ndarray
    class_index: dict = field(init=False)

    def __post_init__(self):
        feats = as_matrix(self.features)
        labels = _check_labels("labels", self.labels, feats.shape[0], None)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "class_index", _class_index(labels))

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return len(self.class_index)


def _class_index(labels: np.ndarray) -> dict:
    """EmbeddingSet.class_index of (M,) int64 labels: from one stable sort,
    class ids ascending, each with its read-only ascending row indices."""
    order = np.argsort(labels, kind="stable")
    order.setflags(write=False)  # so are the views np.split takes of it
    ids, starts = np.unique(labels[order], return_index=True)
    return dict(zip(ids.tolist(), np.split(order, starts[1:])))


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

        sup = as_matrix(self.support_features)
        qry = as_matrix(self.query_features)
        if sup.shape[1] != qry.shape[1]:
            raise InvalidInputError("support and query dimensions differ")
        true = _check_labels("support_true_labels", self.support_true_labels, sup.shape[0], n)
        obs = _check_labels("support_observed_labels", self.support_observed_labels,
                            sup.shape[0], n)
        qlab = _check_labels("query_labels", self.query_labels, qry.shape[0], n)

        if sup.shape[0] != n * k:
            raise InvalidInputError(f"expected {n * k} support rows, got {sup.shape[0]}")
        counts = np.bincount(true, minlength=n)
        if not np.all(counts == k):
            raise InvalidInputError(f"expected exactly {k} supports per class, got counts {counts.tolist()}")

        object.__setattr__(self, "support_features", sup)
        object.__setattr__(self, "query_features", qry)
        object.__setattr__(self, "support_true_labels", true)
        object.__setattr__(self, "support_observed_labels", obs)
        object.__setattr__(self, "query_labels", qlab)

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
        object.__setattr__(self, "rate", _check_real("rate", self.rate, 0.0, 1.0, False))
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
        InvalidInputError: pool is not an EmbeddingSet, has fewer than
            n_way classes, or has a class with fewer than
            k_shot + queries_per_class members.
    """
    _check_type("pool", pool, EmbeddingSet)
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

    true = np.repeat(np.arange(n_way, dtype=np.int64), k_shot)
    return _checked(
        Episode, n_way=n_way, k_shot=k_shot,
        support_features=pool.features[np.concatenate(sup_rows)],
        support_true_labels=true,
        support_observed_labels=true,
        query_features=pool.features[np.concatenate(qry_rows)],
        query_labels=np.repeat(np.arange(n_way, dtype=np.int64), queries_per_class),
        seed=seed,
    )


def _checked(cls: type, **values):
    """A cls (Episode, EmbeddingSet or RefinementTrace) of values that
    already pass its __post_init__'s checks, every field given, its arrays
    set read-only instead of copied and checked again."""
    obj = object.__new__(cls)
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def corrupt_labels(episode: Episode, spec: CorruptionSpec) -> Episode:
    """Rewrite observed labels of exactly rate*K supports in every class.

    Each rewritten label is drawn uniformly from the other N-1 episode
    classes; features, true labels, and queries are untouched, and the
    result shares those arrays with the episode. rate of 0 returns the
    episode unchanged.

    Randomized choices, in stream order from np.random.default_rng(spec.seed),
    for each episode class c = 0..N-1:

    1. slots = rng.permutation(K)[:m] indexes into class c's support rows
       taken in row order (m = round(rate*K));
    2. r = rng.integers(N-1, size=m), one draw per slot in the order
       produced, and slot i's wrong label is r[i] when r[i] < c, else
       r[i] + 1.

    Raises:
        InvalidInputError: episode or spec of another type, rate*K not an
            integer (within 1e-9), or the episode already has observed !=
            true labels.
    """
    _check_type("episode", episode, Episode)
    _check_type("spec", spec, CorruptionSpec)
    if np.any(episode.support_observed_labels != episode.support_true_labels):
        raise InvalidInputError("corrupt_labels expects an uncorrupted episode")
    m = _corrupted_per_class(spec.rate, episode.k_shot)
    if m == 0:
        return episode

    n, k = episode.n_way, episode.k_shot
    true = episode.support_true_labels
    # Row c holds class c's K support rows in row order.
    rows = np.argsort(true, kind="stable").reshape(n, k)
    observed = true.copy()
    rng = np.random.default_rng(spec.seed)
    for c in range(n):
        slots = rng.permutation(k)[:m]
        r = rng.integers(n - 1, size=m)
        observed[rows[c, slots]] = np.where(r < c, r, r + 1)
    return _checked(Episode, **{**vars(episode), "support_observed_labels": observed})

