"""Unit tests for the mean-prototype baseline classifier, its distance and its softmin."""

import math

import numpy as np
import pytest

from rnnp.episodes import CorruptionSpec, EmbeddingSet, Episode, corrupt_labels, sample_episode
from rnnp.errors import DegenerateClassError, InvalidInputError
from rnnp.nnp import (
    _pairwise_raw,
    _softmin_inplace,
    classify,
    compute_prototypes,
)

from _reference import _sq_dist


def two_class_episode(dim=2):
    """2-way 2-shot episode with hand-placed supports."""
    return Episode(
        n_way=2, k_shot=2,
        support_features=np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 0.0], [12.0, 2.0]]),
        support_true_labels=np.array([0, 0, 1, 1]),
        support_observed_labels=np.array([0, 0, 1, 1]),
        query_features=np.array([[1.0, 1.0], [11.0, 1.0]]),
        query_labels=np.array([0, 1]),
    )


def scalar_softmax_neg(dists):
    """Independent scalar oracle: softmax over negated distances via math.exp."""
    weights = [math.exp(-d) for d in dists]
    total = sum(weights)
    return [w / total for w in weights]


class TestComputePrototypes:
    def test_mean_of_two(self):
        ep = two_class_episode()
        protos = compute_prototypes(ep, "observed")
        np.testing.assert_allclose(protos[0], [1.0, 1.0])
        np.testing.assert_allclose(protos[1], [11.0, 1.0])

    def test_single_shot_identity(self):
        ep = Episode(
            n_way=2, k_shot=1,
            support_features=np.array([[3.0, 4.0], [-1.0, 2.0]]),
            support_true_labels=np.array([0, 1]),
            support_observed_labels=np.array([0, 1]),
            query_features=np.array([[0.0, 0.0]]),
            query_labels=np.array([0]),
        )
        protos = compute_prototypes(ep, "observed")
        np.testing.assert_allclose(protos[0], [3.0, 4.0])
        np.testing.assert_allclose(protos[1], [-1.0, 2.0])

    def test_constant_supports(self):
        v = np.array([2.5, -1.0, 7.0])
        ep = Episode(
            n_way=2, k_shot=5,
            support_features=np.vstack([np.tile(v, (5, 1)), np.zeros((5, 3))]),
            support_true_labels=np.repeat([0, 1], 5),
            support_observed_labels=np.repeat([0, 1], 5),
            query_features=np.zeros((1, 3)),
            query_labels=np.array([0]),
        )
        protos = compute_prototypes(ep, "observed")
        np.testing.assert_allclose(protos[0], v)

    def test_observed_vs_true_source(self):
        ep = two_class_episode()
        flipped = Episode(
            n_way=2, k_shot=2,
            support_features=ep.support_features,
            support_true_labels=ep.support_true_labels,
            support_observed_labels=np.array([0, 1, 1, 0]),
            query_features=ep.query_features,
            query_labels=ep.query_labels,
        )
        by_true = compute_prototypes(flipped, "true")
        by_obs = compute_prototypes(flipped, "observed")
        np.testing.assert_allclose(by_true[0], [1.0, 1.0])
        np.testing.assert_allclose(by_obs[0], [6.0, 1.0])

    def test_degenerate_class_raises(self):
        ep = Episode(
            n_way=2, k_shot=2,
            support_features=np.zeros((4, 2)),
            support_true_labels=np.array([0, 0, 1, 1]),
            support_observed_labels=np.array([0, 0, 0, 0]),
            query_features=np.zeros((1, 2)),
            query_labels=np.array([0]),
        )
        with pytest.raises(DegenerateClassError):
            compute_prototypes(ep, "observed")

    def test_bad_label_source(self):
        with pytest.raises(InvalidInputError):
            compute_prototypes(two_class_episode(), "guessed")

    def test_each_call_returns_a_fresh_read_only_array(self):
        ep = two_class_episode()
        first, second = compute_prototypes(ep), compute_prototypes(ep)
        for protos in (first, second):
            assert protos.dtype == np.float64 and protos.shape == (2, 2)
            assert protos.flags.c_contiguous and not protos.flags.writeable
        assert np.array_equal(first, second) and not np.shares_memory(first, second)
        with pytest.raises(ValueError):
            first[0, 0] = 1.0


class TestClassify:
    def test_equidistant_probs_uniform(self):
        # Five prototypes at the same distance from the origin query.
        protos = np.array([
            [1.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ])
        probs, _ = classify(protos, np.zeros(5))
        np.testing.assert_allclose(probs, 0.2, rtol=1e-12)

    def test_coincident_prototype_wins(self):
        protos = np.array([
            [50.0, 0.0], [0.0, 50.0], [3.0, 4.0], [-40.0, -40.0],
        ])
        _, pred = classify(protos, np.array([3.0, 4.0]))
        assert pred == 2

    def test_two_prototype_hand_value(self):
        # Squared distances 0 and ln 3 give probabilities 0.75 / 0.25;
        # verified against an independent scalar computation.
        q = np.array([0.0])
        protos = np.array([[0.0], [math.sqrt(math.log(3.0))]])
        probs, pred = classify(protos, q)
        oracle = scalar_softmax_neg([0.0, math.log(3.0)])
        np.testing.assert_allclose(oracle, [0.75, 0.25], rtol=1e-12)
        np.testing.assert_allclose(probs, oracle, rtol=1e-9)
        assert pred == 0

    def test_probs_sum_to_one(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 16))
            protos = rng.normal(size=(n, d))
            probs, pred = classify(protos, rng.normal(size=d))
            assert abs(probs.sum() - 1.0) < 1e-9
            assert 0 <= pred < n

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 10))
            pr = rng.normal(size=(n, d))
            q = rng.normal(size=d)
            probs, _ = classify(pr, q)
            oracle = scalar_softmax_neg([_sq_dist(q, p) for p in pr])
            np.testing.assert_allclose(probs, oracle, rtol=1e-9)

    def test_shift_of_distances_is_harmless(self):
        # Distances large enough to underflow a naive softmax.
        protos = np.array([[100.0], [101.0]])
        probs, pred = classify(protos, np.array([0.0]))
        assert pred == 0
        assert probs[0] > 0.9

    def test_translation_invariance_of_prediction(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 10))
            pr = rng.normal(size=(n, d))
            q = rng.normal(size=d)
            t = rng.normal(size=d) * 10.0
            _, pred0 = classify(pr, q)
            _, pred1 = classify(pr + t, q + t)
            assert pred0 == pred1

    def test_class_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            n, d = int(rng.integers(2, 6)), int(rng.integers(1, 8))
            pr = rng.normal(size=(n, d))
            q = rng.normal(size=d)
            perm = rng.permutation(n)
            probs0, pred0 = classify(pr, q)
            probs1, pred1 = classify(pr[perm], q)
            np.testing.assert_allclose(probs1, probs0[perm], rtol=1e-12)
            assert pred1 == int(np.flatnonzero(perm == pred0)[0])

    def test_tie_breaks_to_lowest_index(self):
        protos = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        _, pred = classify(protos, np.zeros(2))
        assert pred == 0

    def test_dimension_mismatch(self):
        protos = np.eye(3)
        with pytest.raises(InvalidInputError):
            classify(protos, np.zeros(2))

    def test_rejects_nan_query(self):
        protos = np.eye(3)
        with pytest.raises(InvalidInputError):
            classify(protos, np.array([0.0, np.nan, 0.0]))

    @pytest.mark.parametrize("protos", [np.eye(3), np.eye(3).tolist(), np.eye(3).T.copy(order="F"),
                                        np.eye(3, dtype=np.int64)],
                             ids=["array", "nested-lists", "fortran-order", "int-array"])
    def test_accepts_arrays_and_nested_lists(self, protos):
        probs, pred = classify(protos, [1, 0, 0])
        assert pred == 0
        assert np.array_equal(probs, classify(np.eye(3), [1.0, 0.0, 0.0])[0])

    @pytest.mark.parametrize("protos", [
        [1.0, 0.0, 0.0],
        [[0.0, np.nan, 0.0], [1.0, 0.0, 0.0]],
        [[0.0, np.inf, 0.0], [1.0, 0.0, 0.0]],
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        [[1.0, 0.0, 0.0], [1.0, 0.0]],
        np.zeros((2, 2, 3)),
    ], ids=["1-d", "nan", "inf", "no-rows", "no-columns", "ragged", "3-d"])
    def test_rejects_bad_prototypes(self, protos):
        with pytest.raises(InvalidInputError):
            classify(protos, [1.0, 0.0, 0.0])

    def test_probs_are_read_only_and_sum_to_one(self):
        probs, _ = classify(np.random.default_rng(3).normal(size=(5, 4)), np.zeros(4))
        assert probs.shape == (5,) and not probs.flags.writeable
        assert abs(probs.sum() - 1.0) < 1e-12
        with pytest.raises(ValueError):
            probs[0] = 1.0


class TestEndToEndOnCleanEpisode:
    def test_well_separated_queries_classified(self):
        ep = two_class_episode()
        protos = compute_prototypes(ep, "observed")
        for q, want in zip(ep.query_features, ep.query_labels):
            _, pred = classify(protos, q)
            assert pred == want

    def test_corruption_can_move_prototypes(self):
        pool_rng = np.random.default_rng(0)
        feats = np.vstack([
            pool_rng.normal(loc=0.0, size=(30, 4)),
            pool_rng.normal(loc=8.0, size=(30, 4)),
        ])
        pool = EmbeddingSet(features=feats, labels=np.repeat([0, 1], 30))
        ep = sample_episode(pool, 2, 5, 5, seed=3)
        noisy = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=1))
        clean_protos = compute_prototypes(ep, "observed")
        noisy_protos = compute_prototypes(noisy, "observed")
        assert not np.allclose(clean_protos, noisy_protos)


def sq_dist(a, b):
    """_pairwise_raw for one pair of vectors."""
    return float(_pairwise_raw(np.asarray(a, dtype=np.float64)[None, :],
                               np.asarray(b, dtype=np.float64)[None, :])[0, 0])


def softmax(scores):
    """Softmax over the last axis, as the kernel's softmin of the negated scores."""
    return _softmin_inplace(-np.asarray(scores, dtype=np.float64))


class TestSquaredEuclidean:
    def test_pythagorean_pair(self):
        assert sq_dist([0.0, 0.0], [3.0, 4.0]) == 25.0

    def test_identity(self):
        v = np.array([1.5, -2.25, 0.0])
        assert sq_dist(v, v) == 0.0

    def test_one_dimensional(self):
        assert sq_dist([2.0], [5.0]) == 9.0

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(1, 20))
            a = rng.normal(size=d)
            b = rng.normal(size=d)
            assert sq_dist(a, b) == sq_dist(b, a)

    def test_translation_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            d = int(rng.integers(1, 20))
            a, b, t = rng.normal(size=(3, d))
            np.testing.assert_allclose(sq_dist(a + t, b + t), sq_dist(a, b), rtol=1e-9)

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.normal(size=8)
            b = a.copy()
            b[3] += 1e-12
            assert sq_dist(a, b) > 0.0
            assert sq_dist(a, a.copy()) == 0.0


class TestPairwiseDistances:
    def test_matches_scalar_function(self):
        rng = np.random.default_rng(42)
        rows = rng.normal(size=(6, 5))
        centers = rng.normal(size=(3, 5))
        got = _pairwise_raw(rows, centers)
        for i in range(6):
            for j in range(3):
                np.testing.assert_allclose(got[i, j], _sq_dist(rows[i], centers[j]), rtol=1e-12)

    def test_exact_zero_on_identical_rows(self):
        rows = np.random.default_rng(0).normal(size=(4, 7))
        got = _pairwise_raw(rows, rows)
        assert np.all(np.diag(got) == 0.0)
        assert np.all(got >= 0.0)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(42)
        scores = rng.normal(scale=50.0, size=(100, 7))
        probs = softmax(scores)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_shift_invariance(self):
        # Adding a constant to every score must not change the result.
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = rng.normal(size=6)
            c = rng.normal() * 100.0
            np.testing.assert_allclose(softmax(s), softmax(s + c), rtol=1e-12, atol=1e-15)

    def test_survives_large_negative_scores(self):
        # Naive exp would underflow every term to zero here.
        probs = softmax(np.array([-2000.0, -2001.0]))
        np.testing.assert_allclose(probs.sum(), 1.0)
        assert probs[0] > probs[1] > 0.0

    def test_known_value(self):
        # Two scores 0 and -ln 3: 1/(1 + 1/3) = 0.75 by hand.
        probs = softmax(np.array([0.0, -math.log(3.0)]))
        np.testing.assert_allclose(probs, [0.75, 0.25], rtol=1e-12)


class TestSoftminInplace:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_equals_old_softmax_bit_for_bit(self, n):
        # The refinement kernel's soft step, along axis 1 of a (Q, N, m) block,
        # against the max-shifted softmax(-d) over the last axis of the
        # transposed (Q, m, N) view that it replaces.
        rng = np.random.default_rng(n)
        for offset in (0.0, 1e-3, 1.0, float(rng.uniform(0.0, 1e3)), 1e3):
            for scale in (0.1, 10.0, 1e3):
                d = rng.normal(scale=scale, size=(7, n, 33)) ** 2 + offset
                s = -d.transpose(0, 2, 1)
                e = np.exp(s - s.max(axis=-1, keepdims=True))
                old = e / e.sum(axis=-1, keepdims=True)
                new = d.copy()
                assert _softmin_inplace(new, axis=1) is new
                assert np.array_equal(new.transpose(0, 2, 1), old)
