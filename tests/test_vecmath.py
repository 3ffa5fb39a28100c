"""Unit tests for the vector math primitives."""

import math

import numpy as np
import pytest

from rnnp.vecmath import _pairwise_raw, _softmin_inplace

from _reference import _sq_dist


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
