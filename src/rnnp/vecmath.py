"""Dense float64 vector math used by every other module.

A feature vector is a 1-D float64 numpy array; a stack of vectors is a 2-D
array with one vector per row. Everything here is a pure function with a
fixed accumulation order, so results are reproducible and safe to compute
from any number of concurrent workers.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

# Signature alias: a 1-D float64 array of embedding coordinates.
FeatureVec = np.ndarray


def as_vector(values) -> FeatureVec:
    """Coerce input to a finite 1-D float64 array.

    Raises:
        InvalidInputError: empty, non-1-D, or non-finite input.
    """
    vec = np.asarray(values, dtype=np.float64)
    if vec.ndim != 1 or vec.size == 0:
        raise InvalidInputError(f"expected a non-empty 1-D vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise InvalidInputError("vector contains NaN or Inf")
    return vec


def as_matrix(vectors) -> np.ndarray:
    """Stack vectors into a finite 2-D float64 array, one row per vector."""
    mat = np.asarray(vectors, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] == 0 or mat.shape[1] == 0:
        raise InvalidInputError(f"expected a non-empty 2-D stack of vectors, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidInputError("matrix contains NaN or Inf")
    return mat


def squared_euclidean(a, b) -> float:
    """Squared Euclidean distance between two vectors of equal dimension.

    Symmetric, non-negative, and exactly zero iff the inputs are equal
    (computed as a sum of squared coordinate differences, so no
    cancellation can produce a negative value).
    """
    va = as_vector(a)
    vb = as_vector(b)
    if va.shape != vb.shape:
        raise InvalidInputError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    diff = va - vb
    return float(np.dot(diff, diff))


def _pairwise_raw(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """pairwise_distances without input validation; hot-loop entry point.
    c is (n, d), shared by every row, or (m, n, d), one set per row."""
    diff = r[:, None, :] - c
    return np.einsum("mnd,mnd->mn", diff, diff)


def pairwise_distances(rows, centers) -> np.ndarray:
    """Squared Euclidean distance from every row vector to every center.

    Args:
        rows: (m, d) stack of vectors.
        centers: (n, d) stack of vectors.

    Returns:
        (m, n) float64 array of distances.

    Entries sum squared coordinate differences directly (no expanded
    dot-product identity), so they are exactly non-negative and exactly
    zero for identical vectors.
    """
    r = as_matrix(rows)
    c = as_matrix(centers)
    if r.shape[1] != c.shape[1]:
        raise InvalidInputError(f"dimension mismatch: {r.shape[1]} vs {c.shape[1]}")
    return _pairwise_raw(r, c)


def _softmin_inplace(d: np.ndarray, axis: int = -1) -> np.ndarray:
    """softmax(-d) along axis, written over d and returned; no validation.

    Computed as exp(min d - d) normalised to sum 1, which is bit for bit the
    max-shifted softmax of -d: min d - d equals (-d) - max(-d) exactly.
    """
    np.subtract(d.min(axis=axis, keepdims=True), d, out=d)
    np.exp(d, out=d)
    d /= d.sum(axis=axis, keepdims=True)
    return d


def softmax(scores) -> np.ndarray:
    """Row-wise softmax with max-subtraction for numerical stability.

    Accepts a 1-D vector or a 2-D array (softmax over the last axis).
    Subtracting the row maximum leaves the result unchanged in exact
    arithmetic and prevents underflow of every term at once when the
    scores are large negative numbers.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim not in (1, 2) or s.size == 0:
        raise InvalidInputError(f"expected a non-empty 1-D or 2-D score array, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise InvalidInputError("scores contain NaN or Inf")
    return _softmin_inplace(-s)
