"""Unit tests for episode sampling and label corruption."""

import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rnnp.episodes import (
    CorruptionSpec,
    EmbeddingSet,
    Episode,
    as_matrix,
    as_vector,
    corrupt_labels,
    count_corrupted,
    sample_episode,
)
from rnnp.datagen import MixtureSpec, generate_mixture, write_embeddings
from rnnp.errors import InvalidInputError
from rnnp.harness import (MethodSpec, default_config, run_experiment, run_rectification_analysis,
                          run_sweep, save_rectification, save_reports, save_sweep)
from rnnp.metrics import EvalReport, paired_delta
from rnnp.nnp import compute_prototypes
from rnnp.refine import (RefinementTrace, RnnpConfig, build_hybrids, classify_rnnp,
                         rectification_delta, refine_for_query)


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(labels=st.lists(st.one_of(st.integers(-3, 3), st.sampled_from([-2**63, 2**63 - 1])),
                           min_size=1, max_size=40))
    def test_class_index_equals_one_mask_per_class(self, labels):
        labels = np.array(labels, dtype=np.int64)
        index = EmbeddingSet(features=np.zeros((labels.size, 1)), labels=labels).class_index
        expected = {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}
        assert list(index) == list(expected)
        assert all(type(c) is int for c in index)
        for c, rows in expected.items():
            assert index[c].dtype == rows.dtype and np.array_equal(index[c], rows)
            assert not index[c].flags.writeable

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingSet(features=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(InvalidInputError):
            EmbeddingSet(features=np.zeros((2, 2)), labels=np.array([0.5, 1.0]))
        with pytest.raises(InvalidInputError, match="query_labels"):
            _episode(query_labels=[[0], [0, 1]])  # ragged

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


def reference_corruption(true, n, k, m, seed):
    """corrupt_labels' documented stream, drawn one scalar per slot."""
    observed = true.copy()
    rng = np.random.default_rng(seed)
    for c in range(n):
        rows_c = np.flatnonzero(true == c)
        for s in rng.permutation(k)[:m]:
            r = int(rng.integers(n - 1))
            observed[rows_c[s]] = r if r < c else r + 1
    return observed


class TestCorruptionStream:
    def test_array_draws_equal_per_slot_draws(self):
        rng = np.random.default_rng(0)
        for n in range(2, 11):
            for k in range(1, 6):
                # Class rows interleaved, so a class's slots index its rows in row order.
                true = rng.permutation(np.repeat(np.arange(n), k))
                ep = Episode(n_way=n, k_shot=k, support_features=np.zeros((n * k, 1)),
                             support_true_labels=true, support_observed_labels=true,
                             query_features=np.zeros((n, 1)), query_labels=np.arange(n), seed=0)
                for m in range(1, k + 1):
                    for seed in range(200):
                        got = corrupt_labels(ep, CorruptionSpec(rate=m / k, seed=seed))
                        want = reference_corruption(true, n, k, m, seed)
                        assert np.array_equal(got.support_observed_labels, want), (n, k, m, seed)


def assert_episode_invariants(ep):
    """ep equals, field by field, its rebuild through the public, fully
    checked Episode constructor; its arrays are read-only and its features
    C-contiguous float64."""
    again = Episode(**{f.name: getattr(ep, f.name) for f in fields(Episode)})
    for f in fields(Episode):
        value = getattr(ep, f.name)
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, getattr(again, f.name)), f.name
            assert value.dtype == getattr(again, f.name).dtype, f.name
            assert not value.flags.writeable, f.name
        else:
            assert value == getattr(again, f.name), f.name
    for feats in (ep.support_features, ep.query_features):
        assert feats.dtype == np.float64 and feats.flags.c_contiguous


class TestDerivedEpisodes:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        num_classes=st.integers(2, 7),
        n_way=st.integers(2, 7),
        k_shot=st.integers(1, 6),
        queries=st.integers(1, 4),
        spare=st.integers(0, 3),
        dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sampled_and_corrupted_episodes_keep_episode_invariants(
            self, data, num_classes, n_way, k_shot, queries, spare, dim, seed):
        n_way = min(n_way, num_classes)
        # Pool class ids are any distinct integers, members in shuffled rows.
        ids = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=num_classes,
                                 max_size=num_classes, unique=True))
        rng = np.random.default_rng(seed)
        labels = rng.permutation(np.repeat(ids, k_shot + queries + spare))
        pool = EmbeddingSet(features=rng.normal(size=(labels.size, dim)), labels=labels)
        ep = sample_episode(pool, n_way, k_shot, queries, seed)
        assert_episode_invariants(ep)
        for m in range(k_shot + 1):  # every legal rate
            out = corrupt_labels(ep, CorruptionSpec(rate=m / k_shot, seed=seed + m))
            assert_episode_invariants(out)
            assert count_corrupted(out) == m * n_way
            for name in ("support_features", "support_true_labels", "query_features",
                         "query_labels"):
                assert getattr(out, name) is getattr(ep, name), name


def _typed_objects(tmp_path):
    """Objects of every type a public function checks, plus stand-ins that
    carry the same attributes without being of that type."""
    pool = make_pool(num_classes=3, per_class=4)
    ep = sample_episode(pool, 2, 2, 1, 0)
    return SimpleNamespace(
        pool=pool, ep=ep, query=ep.query_features[0], rnnp=RnnpConfig(beta=1),
        pool_stand_in=SimpleNamespace(**vars(pool)), ep_stand_in=SimpleNamespace(**vars(ep)),
        report=EvalReport(method="nnp", corruption_rate=0.0, n_way=2, k_shot=1,
                          queries_per_class=1, per_episode_accuracies=[0.5, 1.0],
                          skipped_episodes=0, seed=0),
        out=tmp_path / "out")


# Public calls given an object of another type than the one they take, each
# with the name of the type they expect.
WRONG_TYPES = {
    "sample_episode": (lambda o: sample_episode(o.pool_stand_in, 2, 1, 1, 0), "EmbeddingSet"),
    "refine_for_query.episode": (
        lambda o: refine_for_query(o.ep.support_features, o.query, o.rnnp), "Episode"),
    "refine_for_query.config": (
        lambda o: refine_for_query(o.ep, o.query, vars(o.rnnp)), "RnnpConfig"),
    "classify_rnnp.episode": (
        lambda o: classify_rnnp(o.ep.support_features, o.query, o.rnnp), "Episode"),
    "classify_rnnp.config": (
        lambda o: classify_rnnp(o.ep, o.query, vars(o.rnnp)), "RnnpConfig"),
    "build_hybrids.episode": (lambda o: build_hybrids(o.ep_stand_in, o.rnnp), "Episode"),
    "build_hybrids.config": (lambda o: build_hybrids(o.ep, None), "RnnpConfig"),
    "compute_prototypes": (lambda o: compute_prototypes(o.ep_stand_in), "Episode"),
    "corrupt_labels.episode": (
        lambda o: corrupt_labels(o.ep_stand_in, CorruptionSpec(rate=0.5, seed=1)), "Episode"),
    "corrupt_labels.spec": (
        lambda o: corrupt_labels(o.ep, {"rate": 0.2, "seed": 1}), "CorruptionSpec"),
    "count_corrupted": (lambda o: count_corrupted(o.ep_stand_in), "Episode"),
    "rectification_delta": (lambda o: rectification_delta(o.ep, None), "RefinementTrace"),
    "generate_mixture": (lambda o: generate_mixture(vars(_mixture())), "MixtureSpec"),
    "write_embeddings": (
        lambda o: write_embeddings(o.pool.features, o.out / "pool.csv"), "EmbeddingSet"),
    "paired_delta": (lambda o: paired_delta(None, None), "EvalReport"),
    "run_experiment": (lambda o: run_experiment(default_config().to_dict()), "ExperimentConfig"),
    "run_sweep": (lambda o: run_sweep(default_config().to_dict(), "beta", [1]), "ExperimentConfig"),
    "run_rectification_analysis": (
        lambda o: run_rectification_analysis(default_config().to_dict()), "ExperimentConfig"),
    "save_reports": (
        lambda o: save_reports(default_config(), [o.report, vars(o.report)], o.out), "EvalReport"),
    "save_sweep.reports": (lambda o: save_sweep("beta", [o.report, None], o.out), "EvalReport"),
    "save_sweep.sweep_axis": (lambda o: save_sweep(None, [o.report], o.out), "str"),
    "save_rectification": (lambda o: save_rectification(None, o.out), "dict"),
}


@pytest.mark.parametrize("call, expected", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
def test_wrong_typed_objects_are_refused(tmp_path, call, expected):
    objects = _typed_objects(tmp_path)
    with pytest.raises(InvalidInputError, match=rf"^expected \w+ of type {expected}, got \w+$"):
        call(objects)
    assert not objects.out.exists()


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


class TestCoercion:
    @pytest.mark.parametrize("bad", [[], [[1.0]], [1.0, math.nan], [math.inf],
                                     [[1.0], [1.0, 2.0]]])
    def test_as_vector_rejects(self, bad):
        with pytest.raises(InvalidInputError):
            as_vector(bad)

    @pytest.mark.parametrize("bad", [[1.0], [[]], np.zeros((0, 2)), np.zeros((1, 1, 1)),
                                     [[1.0, math.nan]], [[-math.inf]]])
    def test_as_matrix_rejects(self, bad):
        with pytest.raises(InvalidInputError):
            as_matrix(bad)

    def test_features_are_limited_to_1e150_in_magnitude(self):
        past = math.nextafter(1e150, math.inf)
        assert as_vector([1e150, -1e150]).tolist() == [1e150, -1e150]
        assert as_matrix([[-1e150]]).tolist() == [[-1e150]]
        for bad in ([past], [-past]):
            with pytest.raises(InvalidInputError, match=r"beyond 1e\+150 in magnitude"):
                as_vector(bad)
            with pytest.raises(InvalidInputError, match=r"beyond 1e\+150 in magnitude"):
                as_matrix([bad])

    @pytest.mark.parametrize("name", ["support_features", "query_features"])
    def test_episode_refuses_features_beyond_the_limit(self, name):
        at_limit = np.array([[1e150, 0.0], [0.0, -1e150]])
        assert np.array_equal(getattr(_episode(**{name: at_limit}), name), at_limit)
        with pytest.raises(InvalidInputError, match=r"beyond 1e\+150 in magnitude"):
            _episode(**{name: at_limit * 10.0})

    def test_pool_refuses_features_beyond_the_limit(self):
        with pytest.raises(InvalidInputError, match=r"beyond 1e\+150 in magnitude"):
            EmbeddingSet(features=[[0.0], [1e160]], labels=[0, 1])

    def test_as_matrix_returns_a_read_only_c_ordered_copy(self):
        source = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        mat = as_matrix(source)
        assert np.array_equal(mat, source) and not np.shares_memory(mat, source)
        assert mat.flags.c_contiguous and not mat.flags.writeable


def _trace(resp=np.eye(2), initial=np.eye(2), refined=np.eye(2)):
    return RefinementTrace(initial_prototypes=initial, refined_prototypes=refined,
                           support_responsibilities=resp)


# Every float array a constructor stores, built from the caller's array.
STORED_ARRAYS = {
    "EmbeddingSet.features": (lambda a: EmbeddingSet(features=a, labels=[0, 1]), "features"),
    "Episode.support_features": (lambda a: _episode(support_features=a), "support_features"),
    "Episode.query_features": (lambda a: _episode(query_features=a), "query_features"),
    "RefinementTrace.initial_prototypes": (lambda a: _trace(initial=a), "initial_prototypes"),
    "RefinementTrace.refined_prototypes": (lambda a: _trace(refined=a), "refined_prototypes"),
    "RefinementTrace.support_responsibilities": (_trace, "support_responsibilities"),
}


@pytest.mark.parametrize("build, name", list(STORED_ARRAYS.values()), ids=list(STORED_ARRAYS))
def test_stored_arrays_are_read_only_copies(build, name):
    source = np.eye(2)
    stored = getattr(build(source), name)
    source[0] = 0.5
    assert np.array_equal(stored, np.eye(2))
    assert not stored.flags.writeable
