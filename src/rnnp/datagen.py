"""Embedding pools: synthetic Gaussian mixtures and file ingestion.

The synthetic generator stands in for a feature extractor at desk scale:
class means come from a seeded standard Gaussian, rescaled so the mean
pairwise distance between class means equals `separation`, and samples
add unit-variance isotropic noise. One knob (separation, in units of the
within-class standard deviation) controls problem hardness.

File format: CSV with header `label,f0,...,f{d-1}`, one sample per row,
UTF-8, LF or CRLF. A load opens the CSV once (a pipe is read into memory
once). The first successful load of a CSV that is a regular file keeps the
parsed table next to it, in `<csv path>.rnnp.npy` (the sidecar), keyed by
a two-half SHA-256 of the CSV's bytes (see _CsvKey, tag `rnnp-csv-2`);
later loads of the same bytes hash the two halves at once, in two threads,
and read the table back instead of parsing again. A sidecar that cannot be
written (a read-only directory) is skipped, and one that is missing, stale,
damaged or under an older tag (`rnnp-csv-1`) is parsed around and
rewritten, so deleting it is always safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import stat
import struct
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .episodes import (_FEATURE_LIMIT, EmbeddingSet, _check_int, _check_real, _check_size,
                       _check_type, _checked, _class_index, _limit_message, _within_limit)
from .errors import EmbeddingFormatError, InvalidInputError
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
    is kept unscaled (there is no pairwise distance to normalize). A
    separation that puts a class mean beyond 1e150 in magnitude is refused
    before any sample is drawn.
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
            raise InvalidInputError("drawn class means coincide; cannot rescale")
        scale = spec.separation / mean_pairwise
        if scale * float(np.abs(raw).max()) > _FEATURE_LIMIT:
            raise InvalidInputError(f"separation {spec.separation} puts the class means "
                                    f"beyond {_FEATURE_LIMIT:g} in magnitude")
        means = raw * scale
    else:
        means = raw
    feats = rng.standard_normal((c, s, d))
    feats += means[:, None, :]
    labels = np.repeat(np.arange(c, dtype=np.int64), s)
    return _checked(EmbeddingSet, features=feats.reshape(c * s, d), labels=labels,
                    class_index=_class_index(labels))


def write_embeddings(pool: EmbeddingSet, path, file_format: str = "csv") -> None:
    """Write a pool as CSV; load_embeddings reproduces it bit-exactly.

    file_format must be "csv"; any other value raises InvalidInputError.
    """
    _check_type("pool", pool, EmbeddingSet)
    if file_format != "csv":
        raise InvalidInputError(f"file_format must be 'csv', got {file_format!r}")
    with open(_file_name(path), "w", encoding="utf-8", newline="\n") as fh:
        dim = pool.features.shape[1]
        fh.write("label," + ",".join(f"f{i}" for i in range(dim)) + "\n")
        for label, row in zip(pool.labels, pool.features):
            fh.write(str(int(label)) + "," + ",".join(repr(float(x)) for x in row) + "\n")


def load_embeddings(path) -> EmbeddingSet:
    """Parse a CSV embeddings file into a pool.

    The CSV is opened once and every pass reads that handle; one that cannot
    seek (a pipe) is first read into memory once. A CSV goes through one
    numpy pass when it is plain (see _load_csv_fast) and through the line
    loop _parse_csv otherwise (lone-CR line ends too); both give the same
    arrays, bit for bit, and any file the fast pass cannot vouch for gets
    the line loop's verdict. Both check what EmbeddingSet would, so the pool
    holds views of their table, read-only and uncopied.

    When path (see _file_name) names a regular file, the first successful
    load writes the table to the sidecar `<path>.rnnp.npy`, keyed by the
    two-half SHA-256 of the bytes it parsed (see _CsvKey). Later loads of
    the same bytes hash the front and back halves at once on the descriptor
    already open and return the sidecar's table without parsing; a sidecar
    under the older `rnnp-csv-1` key is parsed around once more and
    rewritten. Pipes and other files that are not regular are parsed every
    time and never cached. A sidecar is trusted as much as the directory
    that holds the CSV: one under another key, or holding anything but a
    non-empty table of values within 1e150, is ignored and rewritten.

    Raises:
        InvalidInputError: a path that is no file name (see _file_name).
        EmbeddingFormatError: empty file, bytes that are not UTF-8,
            malformed row, ragged dimensions, a value that is NaN, infinite
            or beyond 1e150 in magnitude, or a label outside int64;
            messages carry the offending line number.
    """
    with open(name := _file_name(path), "rb") as raw:
        info = os.fstat(raw.fileno())
        side = name + ".rnnp.npy" if stat.S_ISREG(info.st_mode) else None
        fh = raw if raw.seekable() else io.BytesIO(raw.read())
        table = _read_sidecar(side, fh, info.st_size) if side else None
        if table is None:
            table, key = _parse_table(fh, name, info.st_size)
            if side:
                _write_sidecar(side, key, table)
    labels = table["label"]
    return _checked(EmbeddingSet, features=table["f"], labels=labels,
                    class_index=_class_index(labels))


def _file_name(path) -> str:
    """path (str, bytes or os.PathLike) as a str; anything else, an open file's
    descriptor included, and a name holding a NUL byte raise InvalidInputError."""
    try:
        name = os.fsdecode(path)
    except TypeError as exc:
        raise InvalidInputError(f"path {path!r}: {exc}") from exc
    if "\0" in name:
        raise InvalidInputError(f"path {name!r}: embedded null byte")
    return name


def _parse_table(fh, path: str, size: int) -> tuple[np.ndarray, bytes]:
    """The (label, features) rows of the CSV in fh as one _table_dtype table,
    and the sidecar key (see _CsvKey, split at size // 2) of the bytes they
    were parsed from, hashed as they were read: a file rewritten during the
    parse is stored under the key of what was read."""
    digest = _CsvKey(size)
    table = _load_csv_fast(fh, digest)
    if table is None:
        digest = _CsvKey(size)
        labels, rows = _parse_csv(_read_lines(fh, digest))
        if not rows:
            raise EmbeddingFormatError(f"{path}: file contains no samples")
        table = np.empty(len(rows), dtype=_table_dtype(len(rows[0])))
        table["label"] = labels
        table["f"] = rows
    return table, digest.digest()


def _table_dtype(dim: int) -> np.dtype:
    """A parsed row: an int64 label, then dim float64 features."""
    return np.dtype([("label", np.int64), ("f", np.float64, (dim,))])


# Hashed first into a CSV's sidecar key. Bump it whenever what the readers
# accept or how the key is made changes, so no table parsed under other rules
# is reused.
_SIDECAR_TAG = b"rnnp-csv-2\0"
# Bytes a warm load reads from the CSV at a time, into one reused buffer per half.
_BLOCK = 1 << 18


class _CsvKey:
    """A CSV's sidecar key, fed the CSV's bytes in order.

    The key is the SHA-256 of _SIDECAR_TAG, the split point (size // 2 of
    the size fstat gave) and the number of bytes fed, each a little-endian
    uint64, then the SHA-256 of the bytes before the split and that of the
    bytes from it on. The halves are hashed apart, so a warm load can hash
    both at once; the key is the same however the bytes were read. Equal
    keys mean equal bytes: the count and the two digests pin both halves.
    """

    def __init__(self, size: int):
        self.split, self.count = size // 2, 0
        self.front, self.back = hashlib.sha256(), hashlib.sha256()

    def update(self, data) -> None:
        cut, n = self.split - self.count, len(data)
        self.count += n
        if cut <= 0:
            self.back.update(data)
        elif cut >= n:
            self.front.update(data)
        else:
            view = memoryview(data)
            self.front.update(view[:cut])
            self.back.update(view[cut:])

    def digest(self) -> bytes:
        return hashlib.sha256(_SIDECAR_TAG + struct.pack("<QQ", self.split, self.count)
                              + self.front.digest() + self.back.digest()).digest()


def _hash_span(fd: int, digest, start: int, stop: int | None = None) -> int:
    """Add the bytes of fd from start up to stop (its end if None) to digest,
    read with os.preadv into one reused buffer; the number of bytes added."""
    view = memoryview(bytearray(_BLOCK))
    pos = start
    while stop is None or pos < stop:
        n = os.preadv(fd, [view if stop is None else view[:min(_BLOCK, stop - pos)]], pos)
        if n == 0:
            break
        digest.update(view[:n])
        pos += n
    return pos - start


def _warm_key(fh, size: int) -> bytes:
    """The _CsvKey of the bytes of the regular file fh, split at size // 2.

    This thread hashes the front half while a second one hashes the back
    half to the end of the file, both with os.preadv on fh's descriptor
    (sha256 and preadv release the GIL). The second thread is joined
    before anything returns or raises, and what it raised is raised here.
    Without os.preadv, fh is read from its position in order instead.
    """
    key = _CsvKey(size)
    if not hasattr(os, "preadv"):
        while block := fh.read(_BLOCK):  # ends holding b"", not the last block
            key.update(block)
        return key.digest()
    fd, back = fh.fileno(), []

    def hash_back():
        try:
            back.append(_hash_span(fd, key.back, key.split))
        except BaseException as exc:  # handed to the caller, which raises it
            back.append(exc)

    thread = threading.Thread(target=hash_back, name="rnnp-csv-key")
    thread.start()
    try:
        front = _hash_span(fd, key.front, 0, key.split)
    finally:
        thread.join()
    if isinstance(back[0], BaseException):
        raise back[0]
    # If the file shrank, a front half read short matches a parse's key only
    # when the back half read nothing: the key still names just the bytes read.
    key.count = front + back[0]
    return key.digest()


def _read_sidecar(side: str, fh, size: int):
    """The table stored in side under the key of fh's bytes, or None: side
    is missing or unreadable, carries another key, or holds anything but a
    non-empty 1-D _table_dtype table whose features are within 1e150, and
    nothing after it. fh is hashed only once side's key has been read."""
    try:
        with open(side, "rb") as sf, warnings.catch_warnings():
            warnings.simplefilter("error")
            key = np.lib.format.read_array(sf, allow_pickle=False).tobytes()
            if key != _warm_key(fh, size):
                return None
            table = np.lib.format.read_array(sf, allow_pickle=False)
            if sf.read(1):
                return None
    # On damaged bytes numpy's header parser raises more than ValueError
    # (tokenize.TokenError, TypeError, a warning, or MemoryError for a huge
    # shape); whatever it raises, the file holds no table this module wrote.
    # An OSError from hashing the CSV is left for the parser to report.
    except Exception:
        return None
    dim = table.dtype.itemsize // 8 - 1
    if (table.ndim != 1 or table.size == 0 or dim < 1 or table.dtype != _table_dtype(dim)
            or not _within_limit(table["f"])):
        return None
    return table


def _write_sidecar(side: str, key: bytes, table: np.ndarray) -> None:
    """Store key and then table in side: a temporary file of this process and
    thread, synced to disk, is renamed into place, so a crash leaves either
    no sidecar or a whole one. A file that cannot be written is skipped."""
    tmp = f"{side}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            np.lib.format.write_array(fh, np.frombuffer(key, dtype=np.uint8))
            np.lib.format.write_array(fh, table)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, side)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)


def _read_lines(fh, digest) -> list[str]:
    """fh's lines from its start, as open(path, encoding="utf-8").read().splitlines()
    gives them; its bytes are added to digest."""
    fh.seek(0)
    raw = fh.read()
    digest.update(raw)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The sentinel puts a line after a trailing line break, where the bad byte is.
        line = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        raise EmbeddingFormatError(
            f"line {line}: byte {raw[exc.start]:#04x} is not valid UTF-8") from exc
    # str.splitlines breaks at \r\n and a lone \r as universal newlines would.
    return text.splitlines()


# ASCII bytes that stop the fast CSV pass: str.splitlines breaks lines at
# \v \f \x1c \x1d \x1e and at a \r that ends no \r\n (numpy refuses a CR
# inside a line), and numpy strips \x1c-\x1f around a number as whitespace
# where int() and float() do not. Outside ASCII they differ more.
_NOT_PLAIN = b"\v\f\r\x1c\x1d\x1e\x1f"


def _plain_lines(fh, digest):
    """fh's binary lines, each added to digest as it is read; ValueError at
    the first one that is not plain ASCII or holds a CR but in a final CRLF."""
    for line in fh:
        digest.update(line)
        body = line[:-2] if line.endswith(b"\r\n") else line
        if not body.isascii() or any(c in body for c in _NOT_PLAIN):
            raise ValueError("not a plain ASCII line")
        yield line


def _load_csv_fast(fh, digest):
    """The _table_dtype table of a plain CSV, read from the start of the binary
    file fh in one np.loadtxt pass, or None. Every line read is added to digest.

    None means the line loop must decide: the file is not plain ASCII,
    the header or any row does not parse, numpy warns (a header-only
    file), or a value is NaN, infinite or beyond 1e150 in magnitude. On
    every file it accepts, the result equals _parse_csv's bit for bit:
    numpy strips the same ASCII whitespace as float() and converts a value
    with the same correctly rounded PyOS_string_to_double, and it takes
    only signed decimal digits as a label, where int() also takes
    underscores (those files go to the line loop).
    """
    fh.seek(0)
    try:
        lines = _plain_lines(fh, digest)
        dim = _csv_dim(next(lines, b"").decode().rstrip("\r\n"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=_table_dtype(dim), delimiter=",",
                               comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if not _within_limit(table["f"]):
        return None
    return table


def _csv_dim(header: str) -> int:
    """Feature count named by the CSV header line."""
    fields = header.split(",")
    if fields[0] != "label" or len(fields) < 2:
        raise EmbeddingFormatError("line 1: header must be 'label,f0,...'")
    return len(fields) - 1


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
        if not -2**63 <= label < 2**63:
            raise EmbeddingFormatError(f"line {num}: label {label} is outside int64")
        labels.append(label)
        rows.append(values)
    return labels, rows
