"""Unit tests for episode sampling and label corruption."""

import math

import numpy as np
import pytest

from rnnp.episodes import (
    CorruptionSpec,
    EmbeddingSet,
    Episode,
    corrupt_labels,
    count_corrupted,
    sample_episode,
)
from rnnp.datagen import MixtureSpec
from rnnp.errors import InvalidInputError
from rnnp.harness import MethodSpec, default_config, run_sweep
from rnnp.refine import RnnpConfig


def make_pool(num_classes=20, per_class=25, dim=8, seed=0):
    rng = np.random.default_rng(seed)
    feats = rng.normal(size=(num_classes * per_class, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    return EmbeddingSet(features=feats, labels=labels)


class TestEmbeddingSet:
    def test_class_index_rows_are_ascending(self):
        pool = make_pool(num_classes=4, per_class=3)
        for c, rows in pool.class_index.items():
            assert np.all(np.diff(rows) > 0)
            assert np.all(pool.labels[rows] == c)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingSet(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingSet(features=np.zeros((2, 2)), labels=np.array([0.5, 1.0]))

    def test_unsigned_labels_beyond_int64_rejected(self):
        big = np.array([2**63, 1], dtype=np.uint64)
        with pytest.raises(InvalidInputError, match="int64"):
            EmbeddingSet(features=np.zeros((2, 1)), labels=big)
        pool = EmbeddingSet(features=np.zeros((2, 1)), labels=np.array([5, 1], dtype=np.uint64))
        assert pool.labels.dtype == np.int64
        assert pool.labels.tolist() == [5, 1]

    def test_arrays_are_read_only(self):
        pool = make_pool(num_classes=2, per_class=2)
        with pytest.raises(ValueError):
            pool.features[0, 0] = 99.0


class TestSampleEpisode:
    def test_cardinality(self):
        pool = make_pool(num_classes=20, per_class=25)
        ep = sample_episode(pool, n_way=5, k_shot=5, queries_per_class=15, seed=42)
        assert ep.support_features.shape == (25, pool.dim)
        assert ep.query_features.shape == (75, pool.dim)
        assert np.all(np.bincount(ep.support_true_labels, minlength=5) == 5)
        assert np.all(np.bincount(ep.query_labels, minlength=5) == 15)

    def test_uncorrupted_on_arrival(self):
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=1)
        assert np.array_equal(ep.support_observed_labels, ep.support_true_labels)
        assert count_corrupted(ep) == 0

    def test_same_seed_identical(self):
        pool = make_pool()
        a = sample_episode(pool, 5, 5, 15, seed=123)
        b = sample_episode(pool, 5, 5, 15, seed=123)
        assert np.array_equal(a.support_features, b.support_features)
        assert np.array_equal(a.query_features, b.query_features)
        assert np.array_equal(a.support_true_labels, b.support_true_labels)

    def test_different_seeds_differ(self):
        pool = make_pool()
        a = sample_episode(pool, 5, 5, 15, seed=1)
        b = sample_episode(pool, 5, 5, 15, seed=2)
        assert not np.array_equal(a.support_features, b.support_features)

    def test_exhaustive_class_draw(self):
        pool = make_pool(num_classes=5, per_class=25)
        ep = sample_episode(pool, n_way=5, k_shot=5, queries_per_class=15, seed=7)
        # Every pool class must appear exactly once among episode classes.
        rows = {tuple(np.round(v, 6)) for v in ep.support_features}
        labels_hit = set()
        for c, idx in pool.class_index.items():
            class_rows = {tuple(np.round(v, 6)) for v in pool.features[idx]}
            if rows & class_rows:
                labels_hit.add(c)
        assert labels_hit == set(pool.class_index)

    def test_no_replacement_within_class(self):
        pool = make_pool(num_classes=6, per_class=20)
        ep = sample_episode(pool, 4, 5, 15, seed=3)
        all_rows = np.vstack([ep.support_features, ep.query_features])
        assert len(np.unique(all_rows, axis=0)) == len(all_rows)

    def test_insufficient_classes(self):
        pool = make_pool(num_classes=3, per_class=25)
        with pytest.raises(InvalidInputError):
            sample_episode(pool, 5, 5, 15, seed=0)

    def test_insufficient_members(self):
        pool = make_pool(num_classes=5, per_class=10)
        with pytest.raises(InvalidInputError):
            sample_episode(pool, 5, 5, 15, seed=0)


class TestCorruptLabels:
    def test_rate_zero_is_identity(self):
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=9)
        out = corrupt_labels(ep, CorruptionSpec(rate=0.0, seed=4))
        assert np.array_equal(out.support_observed_labels, ep.support_true_labels)
        assert count_corrupted(out) == 0

    def test_forty_percent_five_shot(self):
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=9)
        out = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=4))
        assert count_corrupted(out) == 10
        flips = out.support_observed_labels != out.support_true_labels
        for c in range(5):
            assert flips[out.support_true_labels == c].sum() == 2
        # Every corrupted label names a different class inside the episode.
        assert np.all(out.support_observed_labels[flips] != out.support_true_labels[flips])
        assert out.support_observed_labels.min() >= 0
        assert out.support_observed_labels.max() < 5

    def test_twenty_percent_ten_shot(self):
        pool = make_pool(per_class=30)
        ep = sample_episode(pool, 5, 10, 15, seed=11)
        out = corrupt_labels(ep, CorruptionSpec(rate=0.2, seed=5))
        assert count_corrupted(out) == 10
        flips = out.support_observed_labels != out.support_true_labels
        for c in range(5):
            assert flips[out.support_true_labels == c].sum() == 2

    def test_features_and_queries_untouched(self):
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=2)
        out = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=8))
        assert np.array_equal(out.support_features, ep.support_features)
        assert np.array_equal(out.support_true_labels, ep.support_true_labels)
        assert np.array_equal(out.query_features, ep.query_features)
        assert np.array_equal(out.query_labels, ep.query_labels)

    def test_deterministic_given_seed(self):
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=2)
        a = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=77))
        b = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=77))
        assert np.array_equal(a.support_observed_labels, b.support_observed_labels)

    def test_seeds_decorrelate_masks(self):
        # Over many seeds, at least some corruption masks must differ.
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=2)
        masks = set()
        for s in range(100):
            out = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=s))
            masks.add(tuple(out.support_observed_labels.tolist()))
        assert len(masks) > 90

    def test_non_integral_rate_rejected(self):
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=2)
        with pytest.raises(InvalidInputError):
            corrupt_labels(ep, CorruptionSpec(rate=0.3, seed=0))

    def test_config_and_corruption_share_the_rate_times_k_rule(self):
        ep = sample_episode(make_pool(), 5, 5, 15, seed=2)
        with pytest.raises(InvalidInputError) as by_corruption:
            corrupt_labels(ep, CorruptionSpec(rate=0.3, seed=0))
        with pytest.raises(InvalidInputError) as by_config:
            default_config(corruption_rates=(0.3,))
        assert str(by_corruption.value) == str(by_config.value)
        assert "rate=0.3 K=5" in str(by_config.value)

    def test_double_corruption_rejected(self):
        pool = make_pool()
        ep = sample_episode(pool, 5, 5, 15, seed=2)
        once = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=0))
        with pytest.raises(InvalidInputError):
            corrupt_labels(once, CorruptionSpec(rate=0.4, seed=1))

    def test_count_matches_rate_times_n_times_k(self):
        pool = make_pool(per_class=40)
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 6)) * 5
            ep = sample_episode(pool, n, k, 5, seed=int(rng.integers(0, 1000)))
            for rate in (0.0, 0.2, 0.4):
                out = corrupt_labels(ep, CorruptionSpec(rate=rate, seed=int(rng.integers(0, 1000))))
                assert count_corrupted(out) == round(rate * n * k)


class TestEpisodeValidation:
    def test_wrong_support_count_per_class(self):
        feats = np.zeros((4, 2))
        with pytest.raises(InvalidInputError):
            Episode(
                n_way=2, k_shot=2,
                support_features=feats,
                support_true_labels=np.array([0, 0, 0, 1]),
                support_observed_labels=np.array([0, 0, 0, 1]),
                query_features=np.zeros((2, 2)),
                query_labels=np.array([0, 1]),
            )

    def test_out_of_range_observed_label(self):
        feats = np.zeros((4, 2))
        with pytest.raises(InvalidInputError):
            Episode(
                n_way=2, k_shot=2,
                support_features=feats,
                support_true_labels=np.array([0, 0, 1, 1]),
                support_observed_labels=np.array([0, 0, 1, 2]),
                query_features=np.zeros((2, 2)),
                query_labels=np.array([0, 1]),
            )


def _episode(**overrides):
    args = dict(n_way=2, k_shot=1, support_features=np.zeros((2, 2)),
                support_true_labels=[0, 1], support_observed_labels=[0, 1],
                query_features=np.zeros((2, 2)), query_labels=[0, 1])
    return Episode(**{**args, **overrides})


def _mixture(**overrides):
    return MixtureSpec(**{**dict(num_classes=3, dim=2, separation=1.0,
                                 samples_per_class=5, seed=0), **overrides})


# Every integer field or argument, each given True: bool is an int subclass
# but never a meaningful count, size or seed.
BOOL_SITES = {
    "MixtureSpec.num_classes": lambda: _mixture(num_classes=True),
    "MixtureSpec.dim": lambda: _mixture(dim=True),
    "MixtureSpec.samples_per_class": lambda: _mixture(samples_per_class=True),
    "MixtureSpec.seed": lambda: _mixture(seed=True),
    "Episode.n_way": lambda: _episode(n_way=True),
    "Episode.k_shot": lambda: _episode(k_shot=True),
    "Episode.seed": lambda: _episode(seed=True),
    "sample_episode.n_way": lambda: sample_episode(make_pool(), True, 1, 1, 0),
    "sample_episode.k_shot": lambda: sample_episode(make_pool(), 2, True, 1, 0),
    "sample_episode.queries_per_class": lambda: sample_episode(make_pool(), 2, 1, True, 0),
    "sample_episode.seed": lambda: sample_episode(make_pool(), 2, 1, 1, True),
    "CorruptionSpec.seed": lambda: CorruptionSpec(rate=0.0, seed=True),
    "RnnpConfig.beta": lambda: RnnpConfig(beta=True),
    "RnnpConfig.iterations": lambda: RnnpConfig(beta=1, iterations=True),
    "RnnpConfig.seed": lambda: RnnpConfig(beta=1, seed=True),
    **{f"ExperimentConfig.{name}": (lambda name=name: default_config(**{name: True}))
       for name in ("n_way", "k_shot", "queries_per_class", "n_episodes", "seed", "workers")},
}


@pytest.mark.parametrize("build", list(BOOL_SITES.values()), ids=list(BOOL_SITES))
def test_bool_is_rejected_as_an_integer(build):
    with pytest.raises(InvalidInputError):
        build()


def _sweep(axis, value):
    config = default_config(
        mixture=_mixture(num_classes=2, samples_per_class=4), n_way=2, k_shot=3,
        queries_per_class=1, n_episodes=2, corruption_rates=(0.0,), workers=1,
        methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),))
    return run_sweep(config, axis, [value])


# Every real-valued field or argument, with values inside its range: Python
# and numpy ints where the range holds an integer, and floats.
REAL_SITES = {
    "RnnpConfig.alpha": (lambda v: RnnpConfig(beta=1, alpha=v),
                         [0.5, np.float32(0.5), np.float64(0.25)]),
    "MixtureSpec.separation": (lambda v: _mixture(separation=v),
                               [0, np.int64(3), 2.5, np.float32(2.5)]),
    "CorruptionSpec.rate": (lambda v: CorruptionSpec(rate=v, seed=0),
                            [0, np.int32(1), 0.4, np.float32(0.4)]),
    "ExperimentConfig.corruption_rates": (
        lambda v: default_config(k_shot=4, methods=(MethodSpec(method="nnp"),),
                                 corruption_rates=[v]),
        [0, np.int64(1), 0.25, np.float32(0.5), np.float64(0.75)]),
    "run_sweep.alpha": (lambda v: _sweep("alpha", v), [0.5, np.float32(0.25)]),
    "run_sweep.beta": (lambda v: _sweep("beta", v), [1, np.int64(2), 2.0, np.float32(1.0)]),
}

NOT_REAL = [True, np.bool_(False), "3", "0.5", math.nan, math.inf, -math.inf, 10**400, -10**400]


@pytest.mark.parametrize("build, accepted", list(REAL_SITES.values()), ids=list(REAL_SITES))
def test_real_fields_share_one_check(build, accepted):
    for value in NOT_REAL:
        with pytest.raises(InvalidInputError):
            build(value)
    for value in accepted:
        build(value)
