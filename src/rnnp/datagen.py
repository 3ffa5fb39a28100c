"""Embedding pools: synthetic Gaussian mixtures and file ingestion.

The synthetic generator stands in for a feature extractor at desk scale:
class means come from a seeded standard Gaussian, rescaled so the mean
pairwise distance between class means equals `separation`, and samples
add unit-variance isotropic noise. One knob (separation, in units of the
within-class standard deviation) controls problem hardness.

File format: CSV with header `label,f0,...,f{d-1}`, one sample per row,
UTF-8, LF.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .episodes import (_FEATURE_LIMIT, EmbeddingSet, _check_int, _check_real, _check_size,
                       _check_type, _checked, _class_index, _limit_message, _within_limit)
from .errors import DegenerateInputError, EmbeddingFormatError, InvalidInputError
from .nnp import _pairwise_raw


@dataclass(frozen=True)
class MixtureSpec:
    """Parameters of a synthetic isotropic Gaussian mixture pool."""

    num_classes: int
    dim: int
    separation: float
    samples_per_class: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "separation",
                           _check_real("separation", self.separation, 0.0, math.inf, False))
        for name, lo in (("num_classes", 1), ("dim", 1), ("samples_per_class", 1), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), lo))


def generate_mixture(spec: MixtureSpec) -> EmbeddingSet:
    """Sample a labeled pool from the mixture; deterministic given the seed.

    Stream order from np.random.default_rng(spec.seed): first one
    standard_normal draw of all class means, then one standard_normal
    draw of every sample, class-major, each added to its class mean.
    Class labels are 0..C-1, class-major. With a single class the raw mean
    is kept unscaled (there is no pairwise distance to normalize).
    """
    _check_type("spec", spec, MixtureSpec)
    c, d, s = spec.num_classes, spec.dim, spec.samples_per_class
    _check_size(f"num_classes={c} x samples_per_class={s}", c * s, d)
    rng = np.random.default_rng(spec.seed)
    raw = rng.standard_normal((c, d))
    if c > 1:
        dists = np.sqrt(_pairwise_raw(raw, raw))
        mean_pairwise = float(dists[np.triu_indices(c, k=1)].mean())
        if mean_pairwise == 0.0:
            raise DegenerateInputError("drawn class means coincide; cannot rescale")
        means = raw * (spec.separation / mean_pairwise)
    else:
        means = raw
    feats = rng.standard_normal((c, s, d))
    feats += means[:, None, :]
    labels = np.repeat(np.arange(c, dtype=np.int64), s)
    return EmbeddingSet(features=feats.reshape(c * s, d), labels=labels)


def write_embeddings(pool: EmbeddingSet, path, file_format: str = "csv") -> None:
    """Write a pool as CSV; load_embeddings reproduces it bit-exactly.

    file_format must be "csv"; any other value raises InvalidInputError.
    """
    _check_type("pool", pool, EmbeddingSet)
    if file_format != "csv":
        raise InvalidInputError(f"file_format must be 'csv', got {file_format!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        dim = pool.features.shape[1]
        fh.write("label," + ",".join(f"f{i}" for i in range(dim)) + "\n")
        for label, row in zip(pool.labels, pool.features):
            fh.write(str(int(label)) + "," + ",".join(repr(float(x)) for x in row) + "\n")


def load_embeddings(path) -> EmbeddingSet:
    """Parse a CSV embeddings file into a pool.

    A CSV goes through one numpy pass when it is plain (see _load_csv_fast)
    and through the line loop _parse_csv otherwise; both give the same
    arrays, bit for bit, and any file the fast pass cannot vouch for gets
    the line loop's verdict. Both check what EmbeddingSet would, so the pool
    holds their arrays read-only, uncopied: fast-pass features are a view.

    Raises:
        EmbeddingFormatError: empty file, bytes that are not UTF-8,
            malformed row, ragged dimensions, a value that is NaN, infinite
            or beyond 1e150 in magnitude, or a label outside int64;
            messages carry the offending line number.
    """
    parsed = _load_csv_fast(path)
    if parsed is None:
        labels, rows = _parse_csv(_read_lines(path))
        if not rows:
            raise EmbeddingFormatError(f"{path}: file contains no samples")
        parsed = np.array(labels, dtype=np.int64), np.array(rows, dtype=np.float64)
    labels, features = parsed
    return _checked(EmbeddingSet, features=features, labels=labels,
                    class_index=_class_index(labels))


def _read_lines(path) -> list[str]:
    """The file's lines as open(path, encoding="utf-8").read().splitlines()."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The sentinel puts a line after a trailing line break, where the bad byte is.
        line = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        raise EmbeddingFormatError(
            f"line {line}: byte {raw[exc.start]:#04x} is not valid UTF-8") from exc
    # str.splitlines breaks at \r\n and a lone \r as universal newlines would.
    return text.splitlines()


# ASCII characters that stop the fast CSV pass: str.splitlines breaks lines
# at \v \f \x1c \x1d \x1e, and numpy strips \x1c-\x1f around a number as
# whitespace where int() and float() do not. Outside ASCII they differ more.
_NOT_PLAIN = "\v\f\x1c\x1d\x1e\x1f"


def _plain_lines(fh):
    """fh's lines; ValueError at the first one that is not plain ASCII."""
    for line in fh:
        if not line.isascii() or any(c in line for c in _NOT_PLAIN):
            raise ValueError("not a plain ASCII line")
        yield line


def _load_csv_fast(path):
    """(labels, features) of a plain CSV from one np.loadtxt pass, or None.

    Both are strided views of one table, which the pool keeps read-only.
    None means the line loop must decide: the file is not plain ASCII,
    the header or any row does not parse, numpy warns (a header-only
    file), or a value is NaN, infinite or beyond 1e150 in magnitude. On
    every file it accepts, the result equals _parse_csv's bit for bit:
    numpy strips the same ASCII whitespace as float() and converts a value
    with the same correctly rounded PyOS_string_to_double, and it takes
    only signed decimal digits as a label, where int() also takes
    underscores (those files go to the line loop).
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _plain_lines(fh)
            dim = _csv_dim(next(lines, "").rstrip("\n"))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(lines, dtype=[("label", np.int64), ("f", np.float64, (dim,))],
                                   delimiter=",", comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if not _within_limit(table["f"]):
        return None
    return table["label"], table["f"]


def _csv_dim(header: str) -> int:
    """Feature count named by the CSV header line."""
    fields = header.split(",")
    if fields[0] != "label" or len(fields) < 2:
        raise EmbeddingFormatError("line 1: header must be 'label,f0,...'")
    return len(fields) - 1


def _check_label(num: int, label: int) -> int:
    if not -2**63 <= label < 2**63:
        raise EmbeddingFormatError(f"line {num}: label {label} is outside int64")
    return label


def _parse_csv(lines):
    if not lines:
        raise EmbeddingFormatError("line 1: empty file")
    dim = _csv_dim(lines[0])
    labels, rows = [], []
    for num, line in enumerate(lines[1:], start=2):
        if line == "":
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise EmbeddingFormatError(f"line {num}: expected {dim + 1} fields, got {len(parts)}")
        try:
            label = int(parts[0])
            values = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {num}: {exc}") from exc
        if not all(abs(v) <= _FEATURE_LIMIT for v in values):
            raise EmbeddingFormatError(f"line {num}: a feature value is {_limit_message()}")
        labels.append(_check_label(num, label))
        rows.append(values)
    return labels, rows
