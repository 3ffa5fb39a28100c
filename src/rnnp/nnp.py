"""Mean-prototype nearest-neighbor classifier.

The baseline few-shot classifier: average each class's support features
into a prototype, then score a query by a softmax over the negated
distances to the prototypes and predict the nearest prototype's class.
"""

from __future__ import annotations

import numpy as np

from .episodes import _ANY_FINITE, Episode, _check_type, as_matrix, as_vector
from .errors import DegenerateClassError, InvalidInputError

LABEL_SOURCES = ("observed", "true")


def compute_prototypes(episode: Episode, label_source: str = "observed") -> np.ndarray:
    """Average support features per class into prototypes: a fresh read-only
    (N, d) float64 array whose row c is class c's prototype.

    Args:
        episode: the task providing supports.
        label_source: "observed" groups by the (possibly corrupted) labels
            the classifier is allowed to see; "true" groups by ground truth.

    Raises:
        DegenerateClassError: some class has zero supports under the chosen
            labels (possible after corruption when K is small); callers that
            iterate over many episodes should record and skip such episodes.
    """
    _check_type("episode", episode, Episode)
    if label_source not in LABEL_SOURCES:
        raise InvalidInputError(f"label_source must be one of {LABEL_SOURCES}, got {label_source!r}")
    labels = (episode.support_observed_labels if label_source == "observed"
              else episode.support_true_labels)
    means = _class_means(episode.support_features, labels, episode.n_way)
    means.setflags(write=False)
    return means


def _class_means(features: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """(n, d) array whose row c is the mean of the feature rows labelled c.

    Raises:
        DegenerateClassError: some class in 0..n-1 has no rows.
    """
    means = np.empty((n, features.shape[1]), dtype=np.float64)
    for c in range(n):
        rows = features[labels == c]
        if rows.shape[0] == 0:
            raise DegenerateClassError(f"class {c} has no supports under the labels in use")
        means[c] = rows.mean(axis=0)
    return means


def _pairwise_raw(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (m, n) from the (m, d) rows r to the
    centers c, which are (n, d), shared by every row, or (m, n, d), one set
    per row; no validation.

    Entries sum squared coordinate differences directly (no expanded
    dot-product identity), so they are exactly non-negative and exactly
    zero for identical vectors.
    """
    diff = r[:, None, :] - c
    return np.einsum("mnd,mnd->mn", diff, diff)


def _softmin_inplace(d: np.ndarray, axis: int = -1) -> np.ndarray:
    """softmax(-d) along axis, written over d and returned; no validation.

    Computed as exp(min d - d) normalised to sum 1, which is bit for bit the
    max-shifted softmax of -d: min d - d equals (-d) - max(-d) exactly.
    """
    np.subtract(d.min(axis=axis, keepdims=True), d, out=d)
    np.exp(d, out=d)
    d /= d.sum(axis=axis, keepdims=True)
    return d


def classify(prototypes, query) -> tuple[np.ndarray, int]:
    """Classify one query against (N, d) prototypes, one row per class.

    Probabilities, a read-only (N,) array, are a softmax over the negated
    squared Euclidean query-to-prototype distances (computed with
    max-subtraction so large distances cannot underflow everything at once).
    The predicted class is the argmin of those distances, exact ties to the
    lowest class index: the argmax of the probabilities, except where the
    softmax rounds two distances closer than about 1e-16 to one value.

    The query is a feature vector (see as_vector); prototypes need only be
    finite, but a squared distance to the query that overflows is refused.
    """
    protos = as_matrix(prototypes, _ANY_FINITE)
    q = as_vector(query)
    if q.shape[0] != protos.shape[1]:
        raise InvalidInputError(f"query dim {q.shape[0]} does not match prototype dim {protos.shape[1]}")
    probs, preds = _nearest(q[None, :], protos)
    return probs[0], int(preds[0])


def _nearest(queries: np.ndarray, prototypes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """classify for each of the (Q, d) queries, unchecked but for overflow:
    read-only probs (Q, N) and preds (Q,), against (N, d) prototypes or
    (Q, N, d), one set per query."""
    with np.errstate(over="ignore"):
        dists = _pairwise_raw(queries, prototypes)
    if not dists.max() < np.inf:
        raise InvalidInputError("a squared distance from a query to a prototype overflows")
    preds = np.argmin(dists, axis=1)
    probs = _softmin_inplace(dists, axis=1)
    for a in (probs, preds):
        a.setflags(write=False)
    return probs, preds
