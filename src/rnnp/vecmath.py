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
