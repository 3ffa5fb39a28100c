"""Unit tests for the mixture generator and file I/O."""

import builtins
import hashlib
import io
import json
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rnnp import datagen
from rnnp.cli import main
from rnnp.datagen import (
    MixtureSpec,
    _load_csv_fast,
    _parse_csv,
    generate_mixture,
    load_embeddings,
    write_embeddings,
)
from rnnp.episodes import EmbeddingSet
from rnnp.errors import EmbeddingFormatError, InvalidInputError
from rnnp.harness import default_config


def fast_pass(path):
    """The fast pass's table of the CSV at path, or None for the line loop."""
    with open(path, "rb") as fh:
        return _load_csv_fast(fh, hashlib.sha256())


def true_means(spec):
    """The (C, d) class means generate_mixture adds its noise to, re-drawn from
    the stream it documents: one standard_normal((C, d)) draw, rescaled so the
    mean pairwise distance equals the separation (kept raw for one class)."""
    c = spec.num_classes
    raw = np.random.default_rng(spec.seed).standard_normal((c, spec.dim))
    if c == 1:
        return raw
    diff = raw[:, None, :] - raw
    dists = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))[np.triu_indices(c, k=1)]
    return raw * (spec.separation / dists.mean())


class TestGenerateMixture:
    def test_cardinality(self):
        pool = generate_mixture(MixtureSpec(20, 64, 8.0, 50, seed=7))
        assert pool.features.shape == (1000, 64)
        for c in range(20):
            assert len(pool.class_index[c]) == 50

    def test_mean_pairwise_separation_is_exact(self):
        # The draw-loop test below pins true_means to the generator's means.
        means = true_means(MixtureSpec(10, 16, 5.0, 2, seed=3))
        dists = []
        for i in range(10):
            for j in range(i + 1, 10):
                dists.append(np.sqrt(np.sum((means[i] - means[j]) ** 2)))
        np.testing.assert_allclose(np.mean(dists), 5.0, rtol=1e-9)

    def test_zero_separation_collapses_means(self):
        spec = MixtureSpec(6, 8, 0.0, 5, seed=1)
        np.testing.assert_array_equal(true_means(spec), np.zeros((6, 8)))
        # Every sample is then pure noise: the stream after the mean draw.
        rng = np.random.default_rng(spec.seed)
        rng.standard_normal((6, 8))
        assert generate_mixture(spec).features.tobytes() == \
            rng.standard_normal((30, 8)).tobytes()

    def test_deterministic(self):
        spec = MixtureSpec(5, 12, 3.0, 10, seed=21)
        a = generate_mixture(spec)
        b = generate_mixture(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_sample_mean_converges_to_true_mean(self):
        # 10000 samples per class: the sample mean per dimension must land
        # within 4 standard errors of the generating mean.
        spec = MixtureSpec(2, 6, 7.0, 10000, seed=5)
        pool, means = generate_mixture(spec), true_means(spec)
        for c in range(2):
            rows = pool.features[pool.class_index[c]]
            err = np.abs(rows.mean(axis=0) - means[c])
            assert np.all(err < 4.0 / np.sqrt(10000))

    def test_unit_within_class_variance(self):
        pool = generate_mixture(MixtureSpec(3, 4, 10.0, 5000, seed=9))
        for c in range(3):
            rows = pool.features[pool.class_index[c]]
            np.testing.assert_allclose(rows.std(axis=0), 1.0, atol=0.06)

    @pytest.mark.parametrize("spec", [default_config().mixture, MixtureSpec(7, 5, 2.0, 13, 3),
                                      MixtureSpec(1, 4, 3.0, 6, 2)])
    def test_features_equal_a_per_class_draw_loop(self, spec):
        c, d, s = spec.num_classes, spec.dim, spec.samples_per_class
        pool, means = generate_mixture(spec), true_means(spec)
        rng = np.random.default_rng(spec.seed)
        rng.standard_normal((c, d))  # the raw class means
        want = np.vstack([means[i] + rng.standard_normal((s, d)) for i in range(c)])
        assert pool.features.tobytes() == want.tobytes()

    def test_overflowing_mixture_rejected(self):
        # Means scaled to 1e308 apart would overflow to infinity in the pool; the
        # separation is refused by name before any sample is drawn.
        spec = MixtureSpec(num_classes=2, dim=1, separation=1e308, samples_per_class=2, seed=0)
        with pytest.raises(InvalidInputError, match=r"^separation 1e\+308 puts the class means"):
            generate_mixture(spec)

    def test_invalid_specs_rejected(self):
        with pytest.raises(InvalidInputError):
            MixtureSpec(0, 4, 1.0, 5, seed=0)
        with pytest.raises(InvalidInputError):
            MixtureSpec(5, 0, 1.0, 5, seed=0)
        with pytest.raises(InvalidInputError):
            MixtureSpec(5, 4, -1.0, 5, seed=0)
        with pytest.raises(InvalidInputError):
            MixtureSpec(5, 4, 1.0, 0, seed=0)


class TestFileRoundTrip:
    # CSV is the only format; the parameter keeps these tests' ids.
    @pytest.mark.parametrize("fmt", ["csv"])
    def test_round_trip_bit_exact(self, tmp_path, fmt):
        pool = generate_mixture(MixtureSpec(4, 7, 3.0, 6, seed=13))
        path = tmp_path / f"pool.{fmt}"
        write_embeddings(pool, path, fmt)
        back = load_embeddings(path)
        assert np.array_equal(back.features, pool.features)
        assert np.array_equal(back.labels, pool.labels)

    def test_csv_parse_contract(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("label,f0,f1\n3,0.5,-1.0\n", encoding="utf-8")
        pool = load_embeddings(path)
        assert pool.features.shape == (1, 2)
        assert pool.labels.tolist() == [3]
        np.testing.assert_array_equal(pool.features[0], [0.5, -1.0])

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)

    def test_header_only_csv_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("label,f0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path)

    def test_ragged_csv_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n1,0.5,1.0\n2,0.25\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            load_embeddings(path)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f0\n1,nan\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path)

    # 1e150 is the largest feature magnitude; one ulp past it is refused by
    # the line loop, which a plain file's fast pass leaves the verdict to.
    @pytest.mark.parametrize("value, field", [
        ("1e160", "0.25"),
        (repr(-math.nextafter(1e150, math.inf)), "0.25"),
        ("1e160", "2_5"),
    ], ids=["fast_pass_defers", "one_ulp_past", "line_loop_only"])
    def test_value_beyond_the_limit_rejected_with_line_number(self, tmp_path, value, field):
        path = tmp_path / "big.csv"
        path.write_text(f"label,f0,f1\n1,0.5,0.25\n2,{value},{field}\n", encoding="utf-8")
        assert fast_pass(path) is None
        with pytest.raises(EmbeddingFormatError, match=r"^line 3: .* beyond 1e\+150 in magnitude$"):
            load_embeddings(path)

    def test_values_at_the_limit_load(self, tmp_path):
        path = tmp_path / "edge.csv"
        path.write_text("label,f0,f1\n1,1e150,-1e150\n", encoding="utf-8")
        assert fast_pass(path) is not None
        assert load_embeddings(path).features.tolist() == [[1e150, -1e150]]

    # Files in the removed JSONL format are refused at their first line.
    def test_jsonl_empty_features_rejected(self, tmp_path):
        assert_jsonl_refused(tmp_path, '{"label": 1, "features": []}\n')

    def test_jsonl_ragged_rejected(self, tmp_path):
        assert_jsonl_refused(
            tmp_path, '{"label": 1, "features": [0.5, 1.0]}\n{"label": 2, "features": [0.5]}\n')

    def test_jsonl_non_integer_label_rejected(self, tmp_path):
        assert_jsonl_refused(tmp_path, '{"label": "a", "features": [0.5]}\n')

    @pytest.mark.parametrize("label", ["99999999999999999999", "-9223372036854775809",
                                       "9223372036854775808"])
    @pytest.mark.parametrize("fmt", ["csv"])
    def test_label_outside_int64_rejected_with_line_number(self, tmp_path, fmt, label):
        path = tmp_path / f"big.{fmt}"
        path.write_text(f"label,f0\n1,0.5\n{label},0.25\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match=f"line 3: label {label} is outside int64"):
            load_embeddings(path)

    @pytest.mark.parametrize("fmt", ["csv"])
    def test_int64_extremes_load(self, tmp_path, fmt):
        lo, hi = -2**63, 2**63 - 1
        path = tmp_path / f"edge.{fmt}"
        path.write_text(f"label,f0\n{lo},0.5\n{hi},0.25\n", encoding="utf-8")
        assert load_embeddings(path).labels.tolist() == [lo, hi]

    @pytest.mark.parametrize("body, line", [
        (b"label,f0\n1,0.5\n2,0.\xff5\n", 3),
        (b"label,f0\r\n1,0.5\r\n\xe9", 3),
        (b"label,f\xc3\n1,0.5\n", 1),
        (b"label,f0\r1,0.5\r2,0.\x805\n", 3),
        # The UTF-8 check comes before any parsing, so it also numbers a non-CSV file's lines.
        (b'{"label": 1, "features": [0.5]}\r{"label": 2, "features": [\x80]}\n', 2),
    ], ids=["csv_lf", "csv_crlf_last_line", "csv_header", "csv_cr", "jsonl_cr"])
    def test_non_utf8_byte_rejected_with_line_number(self, tmp_path, body, line):
        path = tmp_path / "latin.csv"
        path.write_bytes(body)
        with pytest.raises(EmbeddingFormatError, match=f"^line {line}: byte 0x.. is not valid UTF-8$"):
            load_embeddings(path)

    @pytest.mark.parametrize("path", ["a\x00b.csv", b"a\x00b.csv"], ids=["str", "bytes"])
    def test_nul_byte_in_the_path_rejected(self, path):
        with pytest.raises(InvalidInputError, match="embedded null byte"):
            load_embeddings(path)

    @pytest.mark.parametrize("path", [None, 3.5], ids=["none", "float"])
    def test_non_path_rejected(self, path):
        pool = generate_mixture(MixtureSpec(2, 3, 3.0, 2, seed=1))
        with pytest.raises(InvalidInputError, match=f"^path {path!r}: expected str, bytes"):
            load_embeddings(path)
        with pytest.raises(InvalidInputError, match=f"^path {path!r}: expected str, bytes"):
            write_embeddings(pool, path)

    def test_file_descriptor_rejected_and_left_open(self, tmp_path):
        pool = generate_mixture(MixtureSpec(2, 3, 3.0, 2, seed=1))
        path = tmp_path / "pool.csv"
        write_embeddings(pool, path)
        before = path.read_bytes()
        for flags, call in ((os.O_RDONLY, load_embeddings),
                            (os.O_WRONLY, lambda fd: write_embeddings(pool, fd))):
            fd = os.open(path, flags)
            try:
                with pytest.raises(InvalidInputError, match=f"^path {fd}: .* not int$"):
                    call(fd)
                os.fstat(fd)  # still open: EBADF here would mean it was closed
            finally:
                os.close(fd)
        assert path.read_bytes() == before

    def test_other_write_format_rejected_and_nothing_written(self, tmp_path):
        pool = generate_mixture(MixtureSpec(2, 3, 3.0, 2, seed=1))
        path = tmp_path / "pool.jsonl"
        with pytest.raises(InvalidInputError, match="file_format must be 'csv'"):
            write_embeddings(pool, path, "jsonl")
        assert not path.exists()

    def test_written_files_take_the_fast_pass(self, tmp_path):
        pool = generate_mixture(MixtureSpec(5, 9, 3.0, 40, seed=2))
        path = tmp_path / "pool.csv"
        write_embeddings(pool, path, "csv")
        table = fast_pass(path)
        labels, features = table["label"], table["f"]
        assert labels.dtype == np.int64 and np.array_equal(labels, pool.labels)
        assert features.dtype == np.float64 and np.array_equal(features, pool.features)


class TestLoadedPool:
    """A loaded pool holds the arrays its parser built, read-only and uncopied."""

    def test_load_holds_the_table_once(self, tmp_path):
        # A 4000-row table is 1.06 MB; a second copy of it reads about 2.1x.
        pool = generate_mixture(MixtureSpec(20, 32, 3.0, 200, seed=0))
        path = tmp_path / "pool.csv"
        write_embeddings(pool, path)
        table_bytes = pool.features.shape[0] * (pool.dim + 1) * 8
        del pool
        tracemalloc.start()
        try:
            load_embeddings(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * table_bytes, peak / table_bytes

    # An underscore in a label is a value int() reads and numpy does not.
    @pytest.mark.parametrize("extra_row", ["", "1_0,0.5,0.25\n"], ids=["fast_pass", "line_loop"])
    def test_equals_its_rebuild_through_the_constructor(self, tmp_path, extra_row):
        pool = generate_mixture(MixtureSpec(4, 2, 3.0, 5, seed=3))
        path = tmp_path / "pool.csv"
        write_embeddings(pool, path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(extra_row)
        assert (fast_pass(path) is None) == bool(extra_row)
        loaded = load_embeddings(path)
        rebuilt = EmbeddingSet(features=np.array(loaded.features), labels=np.array(loaded.labels))
        for name in ("features", "labels"):
            got, want = getattr(loaded, name), getattr(rebuilt, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert list(loaded.class_index) == list(rebuilt.class_index)
        for c, rows in rebuilt.class_index.items():
            assert np.array_equal(loaded.class_index[c], rows)
        arrays = [loaded.features, loaded.labels, *loaded.class_index.values()]
        assert not any(a.flags.writeable for a in arrays)
        assert loaded.labels.tolist()[-1] == (10 if extra_row else 3)


def written_pool(tmp_path, extra_row=""):
    """Path of a small written pool, pool.csv, with extra_row appended."""
    path = tmp_path / "pool.csv"
    write_embeddings(generate_mixture(MixtureSpec(6, 4, 6.0, 10, seed=3)), path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(extra_row)
    return path


def assert_same_pool(got, want):
    for name in ("features", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSidecar:
    """The first load keeps the parsed table in <csv>.rnnp.npy; a load of the
    same bytes returns it without parsing, and nothing else is trusted."""

    # The key hashes the bytes as read, before universal newlines turn \r\n into \n.
    @pytest.mark.parametrize("extra_row, newline", [("", "\n"), ("1_0,0.5,0.25,0.125,1.0\n", "\n"),
                                                    ("", "\r\n")],
                             ids=["fast_pass", "line_loop", "crlf"])
    def test_hit_equals_miss_bit_for_bit(self, tmp_path, monkeypatch, extra_row, newline):
        path = written_pool(tmp_path, extra_row)
        path.write_bytes(path.read_bytes().replace(b"\n", newline.encode()))
        assert (fast_pass(path) is None) == bool(extra_row)
        miss = load_embeddings(path)
        assert sorted(os.listdir(tmp_path)) == ["pool.csv", "pool.csv.rnnp.npy"]

        def parsed(*args):
            raise AssertionError("the CSV was parsed again")
        monkeypatch.setattr(datagen, "_load_csv_fast", parsed)
        monkeypatch.setattr(datagen, "_parse_csv", parsed)
        hit = load_embeddings(str(path))
        assert_same_pool(hit, miss)
        assert list(hit.class_index) == list(miss.class_index)
        for c, rows in miss.class_index.items():
            assert np.array_equal(hit.class_index[c], rows)
        arrays = [hit.features, hit.labels, *hit.class_index.values()]
        assert not any(a.flags.writeable for a in arrays)

    def test_bytes_path_keeps_a_sidecar(self, tmp_path):
        path = written_pool(tmp_path, "")
        miss = load_embeddings(os.fsencode(path))
        assert sorted(os.listdir(tmp_path)) == ["pool.csv", "pool.csv.rnnp.npy"]
        assert_same_pool(load_embeddings(os.fsencode(path)), miss)

    def test_same_size_and_mtime_with_other_bytes_is_parsed(self, tmp_path):
        path = tmp_path / "pool.csv"
        path.write_text("label,f0,f1\n1,0.5,0.25\n2,1.5,2.5\n", encoding="utf-8")
        assert load_embeddings(path).features.tolist() == [[0.5, 0.25], [1.5, 2.5]]
        side = tmp_path / "pool.csv.rnnp.npy"
        before, stamp = side.read_bytes(), os.stat(path)
        path.write_text("label,f0,f1\n1,0.5,0.75\n2,1.5,2.5\n", encoding="utf-8")
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert os.stat(path).st_size == stamp.st_size
        assert load_embeddings(path).features.tolist() == [[0.5, 0.75], [1.5, 2.5]]
        assert side.read_bytes() != before

    @pytest.mark.parametrize("after", ["rewritten", "deleted"])
    def test_csv_changed_after_the_parse_keeps_the_parsed_key(self, tmp_path, monkeypatch,
                                                               after):
        parsed = b"label,f0\n1,0.5\n"
        path = tmp_path / "pool.csv"
        path.write_bytes(parsed)
        real = datagen._load_csv_fast

        def changed_after(*args):
            table = real(*args)
            if after == "rewritten":
                path.write_bytes(b"label,f0\n1,0.75\n")
            else:
                path.unlink()
            return table

        monkeypatch.setattr(datagen, "_load_csv_fast", changed_after)
        assert load_embeddings(path).features.tolist() == [[0.5]]
        monkeypatch.undo()
        with open(tmp_path / "pool.csv.rnnp.npy", "rb") as fh:
            key = np.lib.format.read_array(fh).tobytes()
        assert key == hashlib.sha256(b"rnnp-csv-1\0" + parsed).digest()
        if after == "rewritten":
            assert load_embeddings(path).features.tolist() == [[0.75]]

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "trailing_bytes", "wrong_key",
                                        "past_limit", "nan"])
    def test_damaged_sidecar_is_ignored_and_rewritten(self, tmp_path, damage):
        path = written_pool(tmp_path)
        want = load_embeddings(path)
        side = tmp_path / "pool.csv.rnnp.npy"
        good = side.read_bytes()
        if damage == "truncated":
            bad = good[:len(good) // 2]
        elif damage == "garbage":
            bad = bytes(range(256)) * 4
        elif damage == "trailing_bytes":
            bad = good + b"\0"
        elif damage == "wrong_key":
            # Another pool's sidecar, under that pool's key.
            other = tmp_path / "other"
            other.mkdir()
            path_b = other / "pool.csv"
            write_embeddings(generate_mixture(MixtureSpec(6, 4, 6.0, 10, seed=4)), path_b)
            load_embeddings(path_b)
            bad = (other / "pool.csv.rnnp.npy").read_bytes()
        else:
            # The right key over a table with one value the parser refuses.
            fh = io.BytesIO(good)
            key, table = np.lib.format.read_array(fh), np.lib.format.read_array(fh)
            table["f"][3, 1] = 1e160 if damage == "past_limit" else math.nan
            out = io.BytesIO()
            np.lib.format.write_array(out, key)
            np.lib.format.write_array(out, table)
            bad = out.getvalue()
        assert bad != good
        side.write_bytes(bad)
        assert_same_pool(load_embeddings(path), want)
        assert side.read_bytes() == good
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["pool.csv", "pool.csv.rnnp.npy"] + (["other"] if damage == "wrong_key" else []))

    def test_directory_at_the_sidecar_path_writes_nothing(self, tmp_path):
        path = written_pool(tmp_path)
        (tmp_path / "pool.csv.rnnp.npy").mkdir()
        first = load_embeddings(path)
        assert_same_pool(load_embeddings(path), first)
        assert first.features.shape == (60, 4)
        assert sorted(os.listdir(tmp_path)) == ["pool.csv", "pool.csv.rnnp.npy"]
        assert os.listdir(tmp_path / "pool.csv.rnnp.npy") == []

    @pytest.mark.parametrize("body, match", [
        (b"label,f0,f1\n1,0.5,1.0\n2,0.25\n", "^line 3: expected 3 fields, got 2$"),
        (b"label,f0\n1,0.5\n2,0.\xff5\n", "^line 3: byte 0xff is not valid UTF-8$"),
        (b"label,f0\n", "file contains no samples$"),
    ], ids=["ragged", "not_utf8", "header_only"])
    def test_malformed_csv_raises_and_writes_nothing(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        for _ in range(2):
            with pytest.raises(EmbeddingFormatError, match=match):
                load_embeddings(path)
        assert os.listdir(tmp_path) == ["bad.csv"]

    # A 1_0 label is read by the line loop, after the fast pass has drained the pipe.
    @pytest.mark.parametrize("text, labels, features", [
        ("label,f0,f1\n1,0.5,0.25\n2,1.5,2.5\n", [1, 2], [[0.5, 0.25], [1.5, 2.5]]),
        ("label,f0\n1_0,0.5\n2,0.25\n", [10, 2], [[0.5], [0.25]]),
    ], ids=["fast_pass", "line_loop"])
    def test_fifo_is_parsed_and_never_cached(self, tmp_path, text, labels, features):
        fifo = tmp_path / "pool.csv"
        os.mkfifo(fifo)
        loaded = []
        loader = threading.Thread(target=lambda: loaded.append(load_embeddings(fifo)),
                                  daemon=True)
        loader.start()
        with open(fifo, "w", encoding="utf-8") as fh:  # opens once the loader opens it
            fh.write(text)
        loader.join(timeout=30)
        rescued = loader.is_alive()
        if rescued:  # a second open would wait for a writer: give it an empty one
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            loader.join(timeout=30)
        assert not rescued and not loader.is_alive() and len(loaded) == 1
        pool = loaded[0]
        assert pool.labels.tolist() == labels
        assert pool.features.tolist() == features
        assert os.listdir(tmp_path) == ["pool.csv"]

    @pytest.mark.parametrize("case", ["cold_fast_pass", "cold_line_loop", "warm", "stale"])
    def test_each_load_opens_the_csv_once(self, tmp_path, monkeypatch, case):
        path = written_pool(tmp_path, "1_0,0.5,0.25,0.125,1.0\n" * (case == "cold_line_loop"))
        if case in ("warm", "stale"):
            want = load_embeddings(path)  # and writes the sidecar
        if case == "stale":
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("7,0.5,0.25,0.125,1.0\n")
        opened = []
        for owner in (builtins, os):
            def counted(file, *args, _real=owner.open, **kwargs):
                opened.append(file)
                return _real(file, *args, **kwargs)
            monkeypatch.setattr(owner, "open", counted)
        pool = load_embeddings(path)
        monkeypatch.undo()
        assert [os.fspath(f) for f in opened].count(str(path)) == 1, opened
        if case == "warm":
            assert_same_pool(pool, want)
        assert pool.labels.tolist()[-1] == {"cold_line_loop": 10, "stale": 7}.get(case, 5)

    # SHA-256 of the sidecar bytes each CSV gets (on a little-endian machine),
    # as first written when the sidecar landed: a sidecar users already hold
    # stays a hit.
    @pytest.mark.parametrize("body, digest", [
        (b"label,f0,f1\n1,0.5,0.25\n2,1.5,2.5\n",
         "eaa0f7064c3a2e3c3e571cb5f8a08f3283d8c7ec9db8d13faa117384a79256c2"),
        (b"label,f0\n1_0,0.5\n2,0.25\n",
         "0f9fbe1e6b4a618e88467ecea87e28ee781ebe12fa03fb5ea61adc5d0020958e"),
        (b"label,f0,f1\r\n1,0.5,0.25\r\n2,1.5,2.5\r\n",
         "e6347d63c58a1d18785c824c5e85f2ecd2a64198153372b69ec0687f0f9cec1e"),
    ], ids=["fast_pass", "line_loop", "crlf"])
    def test_sidecar_bytes_are_pinned(self, tmp_path, body, digest):
        path = tmp_path / "pool.csv"
        path.write_bytes(body)
        load_embeddings(path)
        side = (tmp_path / "pool.csv.rnnp.npy").read_bytes()
        assert hashlib.sha256(side).hexdigest() == digest

    def test_second_eval_writes_the_same_reports_without_parsing(self, tmp_path, monkeypatch):
        path = written_pool(tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "mixture": None, "data_path": str(path), "data_format": "csv",
            "n_way": 3, "k_shot": 5, "queries_per_class": 4, "n_episodes": 4,
            "corruption_rates": [0.0, 0.4],
            "methods": [{"method": "nnp"}, {"method": "rnnp", "beta": 2, "iterations": 2}],
            "seed": 5,
        }), encoding="utf-8")
        calls = []
        for name in ("_load_csv_fast", "_parse_csv"):
            def counted(*args, _real=getattr(datagen, name), _name=name):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(datagen, name, counted)
        runs = []
        for run in ("first", "second"):
            calls.clear()
            assert main(["eval", "--config", str(cfg), "--out", str(tmp_path / run),
                         "--workers", "1"]) == 0
            runs.append(list(calls))
        assert runs == [["_load_csv_fast"], []]
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "first" / name).read_bytes() == \
                (tmp_path / "second" / name).read_bytes()


def line_loop(path):
    """What the line loop alone makes of a CSV: (labels, features), or its message."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    try:
        labels, rows = _parse_csv(lines)
    except EmbeddingFormatError as exc:
        return str(exc)
    if not rows:
        return f"{path}: file contains no samples"
    return np.array(labels, dtype=np.int64), np.array(rows, dtype=np.float64)


# Ways a field or a line can differ from what write_embeddings writes; each
# is one where np.loadtxt and the line loop were seen to disagree, or one
# both must read the same.
FIELD_EDITS = (
    lambda f: f" {f} ",
    lambda f: f"\t{f}",
    lambda f: f"{f}\x1f",
    lambda f: f"\x1c{f}",
    lambda f: f"{f}\xa0",
    lambda f: f"{f}\x85",
    lambda f: f"\u2028{f}",
    lambda f: f"{f}\f",
    lambda f: f"1_{f}",
    lambda f: f'"{f}"',
    lambda f: f"{f}#",
    lambda f: "#",
    lambda f: "",
    lambda f: "3.0",
    lambda f: "1e3",
    lambda f: "99999999999999999999",
    lambda f: "+7",
    lambda f: "\u0667",
)
NON_FINITE = ("nan", "-inf", "Infinity", "1e999", "-NaN")
SEPARATORS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r")
LOOSE_LINES = ("", "", "", " ", "\t", "  \t ", ",", "\f")


@st.composite
def csv_texts(draw):
    """A CSV text: well-formed rows with some of the edits above mixed in."""
    dim = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 5))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[str(draw(st.integers(-2**63, 2**63 - 1)))] + [repr(draw(floats)) for _ in range(dim)]
            for _ in range(n_rows)]
    if any(abs(float(v)) > 1e150 for r in rows for v in r[1:]):
        event("a value past the feature limit")
    if rows and draw(st.integers(0, 3)) == 0:
        rows[draw(st.integers(0, n_rows - 1))][draw(st.integers(1, dim))] = \
            draw(st.sampled_from(NON_FINITE))
    edits = draw(st.sampled_from([0, 0, 0, 1, 2, 3]))
    for _ in range(edits if rows else 0):
        kind = draw(st.sampled_from(["field", "field", "trailing_comma", "ragged"]))
        r = draw(st.integers(0, len(rows) - 1))
        if kind == "field":
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(st.sampled_from(FIELD_EDITS))(rows[r][c])
        elif kind == "trailing_comma":
            rows[r].append("")
        elif r + 1 < len(rows) and len(rows[r]) > 1:
            # Move one field to the next row: the field count still adds up.
            rows[r + 1].insert(0, rows[r].pop())
    lines = ["label," + ",".join(f"f{i}" for i in range(dim))] + [",".join(r) for r in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(LOOSE_LINES)))
    ending = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = ending.join(lines) + draw(st.sampled_from([ending, ""]))
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SEPARATORS)) + text[at:]
    return text


# One text per divergence between np.loadtxt and the line loop that was
# measured, plus the edits both must read the same.
DIVERGENCES = (
    "label,f0,f1\n1,0.5,0.25\n \n",  # whitespace-only line
    "label,f0,f1\n1,0.5\f,0.25\n",  # splitlines separators inside a row
    "label,f0,f1\n1,0.5\v,0.25\n",
    "label,f0,f1\n1,0.5\x1d,0.25\n",
    "label,f0,f1\n1,0.5\x85,0.25\n",
    "label,f0,f1\n1,\u20280.5,0.25\n",
    "label,f0,f1\n1,0.5,0.25\f\n2,0.5,0.25\n",
    "label,f0,f1\r1,0.5,0.25\r",  # lone CR
    "label,f0,f1\n1,0.5\x1f,0.25\n",  # whitespace to numpy only
    "label,f0,f1\n1_0,0.5,0.25\n",  # underscores
    "label,f0,f1\n1,0_5,2_5.0\n",
    "label,f0,f1\n1,0.5,0.25,\n",  # trailing comma
    "label,f0,f1\n1,0.5,\n",
    "label,f0,f1\n1,nan,0.25\n",  # non-finite
    "label,f0,f1\n1,0.5,-inf\n",
    "label,f0,f1\n1,1e999,0.25\n",
    "label,f0,f1\n",  # header only
    "label,f0,f1",
    "",
    "label,f0,f1\n1,0.5\n0.25,2,0.5,0.25\n",  # ragged, 6 fields in 2 rows
    "label,f0,f1\n3.0,0.5,0.25\n",
    "label,f0,f1\n1e3,0.5,0.25\n",
    'label,f0,f1\n"1",0.5,0.25\n',  # quoted field
    "label,f0,f1\n1,0.5#,0.25\n",  # '#' inside a field
    "label,f0,f1\r\n1,0.5,0.25\r\n2,1.5,-0.0\r\n",  # CRLF
    "label,f0\r,f1\n1,0.5,0.25\n",  # a CR that ends no CRLF: a line break to splitlines
    "label,f0,f1\r\r\n1,0.5,0.25\r\n",
    "label,f0,f1\r\n1,0.5,0.25\r2,1.5,2.5\r\n",
    "label,f0,f1\n1,0.5,0.25\r",
    "label,f0,f1\n 1 ,\t0.5 , +0.25\n",  # spaces around numbers
    "label,f0,f1\n\n1,0.5,0.25\n\n\n2,.5,5.\n",  # empty lines
    "label,f0,f1\n99999999999999999999,0.5,0.25\n",  # label outside int64
    "label,f0,f1\n\u0667,0.5,0.25\n",  # a digit int() reads and numpy does not
)


def assert_jsonl_refused(tmp_path, text):
    path = tmp_path / "pool.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(EmbeddingFormatError, match="^line 1: header must be 'label,f0,...'$"):
        load_embeddings(path)


def assert_matches_line_loop(path):
    expected = line_loop(path)
    try:
        pool = load_embeddings(path)
    except EmbeddingFormatError as exc:
        assert str(exc) == expected
        return
    assert not isinstance(expected, str), expected
    labels, features = expected
    assert pool.labels.dtype == labels.dtype and pool.labels.tobytes() == labels.tobytes()
    assert pool.features.shape == features.shape
    assert pool.features.tobytes() == features.tobytes()


class TestFastCsvReader:
    """load_embeddings equals the line loop run directly, on any CSV text."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=csv_texts())
    def test_equals_line_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("csv") / "pool.csv"
        path.write_bytes(text.encode("utf-8"))
        event("fast pass" if fast_pass(path) is not None else "line loop")
        assert_matches_line_loop(path)
        # The draws are unbounded: a value past the feature limit never loads.
        loaded = line_loop(path)
        if not isinstance(loaded, str):
            assert np.abs(loaded[1]).max() <= 1e150

    @pytest.mark.parametrize("text", DIVERGENCES)
    def test_measured_divergences_equal_line_loop(self, tmp_path, text):
        path = tmp_path / "pool.csv"
        path.write_bytes(text.encode("utf-8"))
        assert_matches_line_loop(path)
