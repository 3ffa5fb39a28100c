"""Unit tests for hybrid generation and per-query prototype refinement."""

import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rnnp.episodes import CorruptionSpec, EmbeddingSet, Episode, corrupt_labels, sample_episode
from rnnp.errors import InvalidInputError
from rnnp.nnp import _pairwise_raw, classify, compute_prototypes
from rnnp.refine import (
    HYBRID_SOURCES,
    RefinementTrace,
    RnnpConfig,
    _SCRATCH,
    _build_hybrids,
    _cluster_batch,
    _first_min_onehot,
    _refine_queries,
    _span_episode,
    _update,
    classify_rnnp,
    rectification_delta,
)

from _reference import reference_hybrids, reference_refine


def predict(prototypes, queries):
    """The harness's prediction: each query's nearest prototype."""
    return np.argmin(_pairwise_raw(queries, prototypes), axis=1)


def small_episode(seed=0, n_way=3, k_shot=5, dim=6, queries=4, spread=6.0):
    """Well-separated random episode built directly, class-major rows."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(n_way, dim)) * spread
    sup = np.vstack([means[c] + rng.normal(size=(k_shot, dim)) for c in range(n_way)])
    qry = np.vstack([means[c] + rng.normal(size=(queries, dim)) for c in range(n_way)])
    labels = np.repeat(np.arange(n_way), k_shot)
    return Episode(
        n_way=n_way, k_shot=k_shot,
        support_features=sup,
        support_true_labels=labels,
        support_observed_labels=labels.copy(),
        query_features=qry,
        query_labels=np.repeat(np.arange(n_way), queries),
        seed=seed,
    )


def shift(ep, t):
    """ep with every support and query feature moved by t."""
    return Episode(
        n_way=ep.n_way, k_shot=ep.k_shot,
        support_features=ep.support_features + t,
        support_true_labels=ep.support_true_labels,
        support_observed_labels=ep.support_observed_labels,
        query_features=ep.query_features + t,
        query_labels=ep.query_labels,
        seed=ep.seed,
    )


def relabel(ep, perm, **features):
    """ep with episode class c renamed perm[c] in every label, and any
    feature arrays replaced by those given."""
    return Episode(
        n_way=ep.n_way, k_shot=ep.k_shot,
        support_features=features.get("support_features", ep.support_features),
        support_true_labels=perm[ep.support_true_labels],
        support_observed_labels=perm[ep.support_observed_labels],
        query_features=features.get("query_features", ep.query_features),
        query_labels=perm[ep.query_labels],
        seed=ep.seed,
    )


def swaps_among_equal_means(initial):
    """Every relabeling that only exchanges classes with the same initial
    prototype, the identity first: such classes differ by index alone."""
    groups = {}
    for c, row in enumerate(map(tuple, initial)):
        groups.setdefault(row, []).append(c)
    for choice in itertools.product(*(itertools.permutations(g) for g in groups.values())):
        sigma = np.arange(len(initial))
        for group, image in zip(groups.values(), choice):
            sigma[group] = image
        yield sigma


def spec_1d_episode():
    """2-way 2-shot 1-D episode with interleaved class structure."""
    return Episode(
        n_way=2, k_shot=2,
        support_features=np.array([[-1.0], [-0.8], [1.0], [0.8]]),
        support_true_labels=np.array([0, 0, 1, 1]),
        support_observed_labels=np.array([0, 0, 1, 1]),
        query_features=np.array([[0.9]]),
        query_labels=np.array([1]),
    )


class TestRnnpConfig:
    def test_defaults(self):
        cfg = RnnpConfig(beta=4)
        assert cfg.alpha == 0.8
        assert cfg.iterations == 3
        assert cfg.clustering_mode == "soft"
        assert cfg.hybrid_source == "same_class"
        assert cfg.hybrid_labeling == "unlabeled_cluster"

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
    def test_alpha_must_be_interior(self, alpha):
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=4, alpha=alpha)

    def test_beta_must_be_positive_integer(self):
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=0)
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=2.5)

    def test_negative_iterations_rejected(self):
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=4, iterations=-1)

    def test_bad_enums_rejected(self):
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=4, clustering_mode="fuzzy")
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=4, hybrid_source="mirror")
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=4, hybrid_labeling="sometimes")

    def test_noise_hybrids_cannot_be_labeled(self):
        # Noise vectors have no parent class to inherit a label from.
        with pytest.raises(InvalidInputError):
            RnnpConfig(beta=4, hybrid_source="gaussian_noise", hybrid_labeling="labeled_direct")


class TestGenerateHybrids:
    def test_convex_combination_value(self):
        ep = Episode(
            n_way=2, k_shot=2,
            support_features=np.array([[1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [7.0, 7.0]]),
            support_true_labels=np.array([0, 0, 1, 1]),
            support_observed_labels=np.array([0, 0, 1, 1]),
            query_features=np.zeros((1, 2)),
            query_labels=np.array([0]),
        )
        hybrids = _build_hybrids(ep, RnnpConfig(beta=1, alpha=0.8))[0]
        # First support (1,0) has single classmate (0,1).
        np.testing.assert_allclose(hybrids[0], [0.8, 0.2], rtol=1e-12)

    def test_full_pairing_count(self):
        ep = small_episode(n_way=5, k_shot=5)
        hybrids = _build_hybrids(ep, RnnpConfig(beta=4))[0]
        assert hybrids.shape == (100, ep.dim)

    def test_full_pairing_hits_every_classmate(self):
        ep = small_episode(n_way=2, k_shot=4, dim=3)
        cfg = RnnpConfig(beta=3, alpha=0.8)
        hybrids = _build_hybrids(ep, cfg)[0]
        # With beta == K-1 the partners of support s are its classmates in
        # ascending row order, so every hybrid is checkable by hand.
        row = 0
        for s in range(8):
            mates = [j for j in range(8)
                     if j != s and ep.support_observed_labels[j] == ep.support_observed_labels[s]]
            for j in mates:
                want = 0.8 * ep.support_features[s] + 0.2 * ep.support_features[j]
                np.testing.assert_allclose(hybrids[row], want, rtol=1e-12)
                row += 1
        assert row == len(hybrids)

    def test_constant_class_maps_to_itself(self):
        v = np.array([3.0, -2.0])
        ep = Episode(
            n_way=2, k_shot=3,
            support_features=np.vstack([np.tile(v, (3, 1)), np.ones((3, 2))]),
            support_true_labels=np.repeat([0, 1], 3),
            support_observed_labels=np.repeat([0, 1], 3),
            query_features=np.zeros((1, 2)),
            query_labels=np.array([0]),
        )
        hybrids = _build_hybrids(ep, RnnpConfig(beta=2, alpha=0.8))[0]
        np.testing.assert_allclose(hybrids[:6], np.tile(v, (6, 1)), rtol=1e-12)

    def test_beta_above_k_minus_one_rejected(self):
        ep = small_episode(k_shot=3)
        with pytest.raises(InvalidInputError, match="exceeds K-1"):
            classify_rnnp(ep, ep.query_features[0], RnnpConfig(beta=3))

    def test_deterministic(self):
        ep = small_episode(seed=5, k_shot=6)
        cfg = RnnpConfig(beta=2, seed=9)
        a = _build_hybrids(ep, cfg)[0]
        b = _build_hybrids(ep, cfg)[0]
        assert np.array_equal(a, b)

    def test_subsampled_partners_stay_in_class(self):
        ep = small_episode(seed=3, n_way=3, k_shot=6, spread=50.0)
        cfg = RnnpConfig(beta=2, alpha=0.8, seed=4)
        hybrids = _build_hybrids(ep, cfg)[0]
        assert hybrids.shape == (36, ep.dim)
        # With spread 50 the classes are far apart, so every hybrid must
        # sit near its own class mean if both parents share a class.
        protos = compute_prototypes(ep, "observed")
        for row, h in enumerate(hybrids):
            s = row // 2
            c = ep.support_observed_labels[s]
            d_own = np.sum((h - protos[c]) ** 2)
            d_other = min(np.sum((h - protos[o]) ** 2) for o in range(3) if o != c)
            assert d_own < d_other

    def test_different_class_partners(self):
        ep = small_episode(seed=3, n_way=3, k_shot=4, spread=50.0)
        cfg = RnnpConfig(beta=2, alpha=0.8, hybrid_source="different_class", seed=4)
        hybrids = _build_hybrids(ep, cfg)[0]
        assert hybrids.shape == (24, ep.dim)
        # A cross-class blend at alpha=0.8 leaves the 20% foreign pull
        # visible: the hybrid is off its parent mean by a macroscopic amount.
        protos = compute_prototypes(ep, "observed")
        for row, h in enumerate(hybrids):
            s = row // 2
            c = ep.support_observed_labels[s]
            assert np.sqrt(np.sum((h - protos[c]) ** 2)) > 1.0

    def test_gaussian_noise_count_and_scale(self):
        ep = small_episode(seed=8, n_way=4, k_shot=5, dim=5)
        cfg = RnnpConfig(beta=3, hybrid_source="gaussian_noise", seed=21)
        noise = _build_hybrids(ep, cfg)[0]
        assert noise.shape == (60, 5)
        mu = ep.support_features.mean(axis=0)
        sd = ep.support_features.std(axis=0)
        # Fitted diagonal Gaussian: sample stats should land near the
        # support stats (60 draws, so allow generous slack).
        assert np.all(np.abs(noise.mean(axis=0) - mu) < 4.0 * sd / math.sqrt(60) + 1e-9)
        assert np.all(noise.std(axis=0) < 2.0 * sd + 1e-9)
        assert np.all(noise.std(axis=0) > 0.3 * sd)

    def test_corrupted_groups_still_yield_full_count(self):
        pool_rng = np.random.default_rng(0)
        pool = EmbeddingSet(
            features=pool_rng.normal(size=(200, 4)),
            labels=np.repeat(np.arange(10), 20),
        )
        ep = sample_episode(pool, 5, 5, 5, seed=13)
        noisy = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=3))
        hybrids = _build_hybrids(noisy, RnnpConfig(beta=4, seed=1))[0]
        assert hybrids.shape == (100, 4)
        assert np.all(np.isfinite(hybrids))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        source=st.sampled_from(["same_class", "different_class"]),
        n_way=st.integers(2, 4),
        k_shot=st.integers(2, 6),
        dim=st.integers(1, 5),
        beta=st.integers(1, 6),
        alpha=st.floats(0.05, 0.95),
        scale=st.sampled_from([1e-3, 1.0, 1e6]),
        seeds=st.tuples(st.integers(0, 2**31 - 1), st.integers(0, 2**31 - 1)),
    )
    def test_matches_reference_bit_for_bit(self, data, source, n_way, k_shot, dim, beta,
                                           alpha, scale, seeds):
        kn = n_way * k_shot
        # Any observed labelling, so observed groups of every size occur: a
        # support can have more partners than beta, exactly beta, fewer, or none.
        observed = data.draw(st.lists(st.integers(0, n_way - 1), min_size=kn, max_size=kn))
        if source == "same_class":
            beta = min(beta, k_shot - 1)
        sup = np.random.default_rng(seeds[1]).normal(size=(kn, dim)) * scale
        true = np.repeat(np.arange(n_way), k_shot)
        ep = Episode(n_way=n_way, k_shot=k_shot, support_features=sup,
                     support_true_labels=true, support_observed_labels=np.array(observed),
                     query_features=sup[:1], query_labels=true[:1], seed=seeds[1])
        cfg = RnnpConfig(beta=beta, alpha=alpha, hybrid_source=source, seed=seeds[0])
        for s in range(kn):
            mates = sum(1 for j, o in enumerate(observed)
                        if (o == observed[s]) == (source == "same_class") and j != s)
            event("partners: " + ("none" if mates == 0 else "> beta" if mates > beta
                                  else "= beta" if mates == beta else "< beta"))

        feats, parents = _build_hybrids(ep, cfg)
        want = reference_hybrids(sup.tolist(), observed, alpha, beta, source, *seeds)
        assert np.array_equal(feats, np.array(want).reshape(kn * beta, dim))
        assert np.array_equal(parents, np.repeat(observed, beta))

    def test_partners_match_the_per_support_loop(self):
        reached = {"same_class": set(), "different_class": set()}
        for i, (source, n_way, k_shot, beta, observed) in enumerate(partner_layouts()):
            kn = n_way * k_shot
            sup = np.random.default_rng(i).normal(size=(kn, 3))
            true = np.repeat(np.arange(n_way), k_shot)
            ep = Episode(n_way=n_way, k_shot=k_shot, support_features=sup,
                         support_true_labels=true, support_observed_labels=observed,
                         query_features=sup[:1], query_labels=true[:1], seed=i)
            alpha = 0.7
            cfg = RnnpConfig(beta=beta, alpha=alpha, hybrid_source=source, seed=3 * i)
            partners, branches = loop_partners(observed, beta, source,
                                               np.random.default_rng([cfg.seed, ep.seed]))
            reached[source].update(branches)
            feats, parents = _build_hybrids(ep, cfg)
            want = alpha * sup[:, None, :] + (1.0 - alpha) * sup[partners]
            assert np.array_equal(feats, want.reshape(kn * beta, 3)), i
            assert np.array_equal(parents, np.repeat(observed, beta)), i
        assert reached == {source: {"draw", "exact", "cycle", "self"} for source in reached}


def loop_partners(observed, beta, source, rng):
    """_build_hybrids' partner choice as one flatnonzero per support in row
    order, and the branch each support took."""
    kn = len(observed)
    partners = np.empty((kn, beta), dtype=np.int64)
    branches = []
    for s in range(kn):
        cands = np.flatnonzero((observed == observed[s]) == (source == "same_class"))
        cands = cands[cands != s]
        m = len(cands)
        if m > beta:
            partners[s] = cands[rng.permutation(m)[:beta]]
        elif m > 0:
            partners[s] = cands[np.arange(beta) % m]
        else:
            partners[s] = s
        branches.append("draw" if m > beta else "exact" if m == beta else
                        "cycle" if m else "self")
    return partners, branches


def partner_layouts():
    """(source, n_way, k_shot, beta, observed labels) cases. Each one with a
    drawing support has one after a support that draws nothing, so a draw
    taken out of turn would shift the stream."""
    rng = np.random.default_rng(2024)
    # different_class pairs a support with itself only when every label is equal.
    cases = [("different_class", 3, 2, 2, np.zeros(6, dtype=np.int64))]
    while len(cases) < 240:
        source = ("same_class", "different_class")[len(cases) % 2]
        n_way, k_shot = int(rng.integers(2, 6)), int(rng.integers(2, 7))
        kn = n_way * k_shot
        beta = int(rng.integers(1, k_shot if source == "same_class" else kn))
        observed = rng.choice(n_way, size=kn, p=rng.dirichlet(np.full(n_way, 0.4)))
        branches = loop_partners(observed, beta, source, np.random.default_rng(0))[1]
        draws = np.array(branches) == "draw"
        if draws.any() and not draws[:np.flatnonzero(draws)[-1]].all():
            cases.append((source, n_way, k_shot, beta, observed))
    return cases


def assign_at(feats, centers, mode="soft"):
    """The kernel's assignment of feats (m, d) at centers (N, d), as (m, N):
    a zero-round _cluster_batch with feats as shared rows; its one query,
    feats[:1], does not enter the shared rows' assignment."""
    feats = np.asarray(feats, dtype=np.float64)
    cfg = RnnpConfig(beta=1, iterations=0, clustering_mode=mode)
    _, resp = _cluster_batch(feats, feats[:1], np.asarray(centers), cfg)
    return resp[0].T


def update_from(feats, resp, previous):
    """The kernel's center update of feats (m, d) under responsibilities
    (m, N) and a zero-weight query, as one center-major (N, 1, ...) problem;
    previous (N, d) is kept by empty clusters."""
    feats, resp, previous = (np.asarray(a, dtype=np.float64) for a in (feats, resp, previous))
    n, d = previous.shape
    return _update(feats, np.zeros((1, d)), resp.T[:, None], np.zeros((n, 1)),
                   previous[:, None], np.empty((n, 1, d)))[:, 0]


class TestSoftAssign:
    """The assignment step of the kernel, read off a zero-round run."""

    def test_equidistant_uniform_row(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        r = assign_at(np.zeros((1, 2)), centers)
        np.testing.assert_allclose(r[0], 0.25, rtol=1e-12)

    def test_hard_one_hot_on_coincident_feature(self):
        centers = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 9.0]])
        r = assign_at(np.array([[9.0, 9.0]]), centers, mode="hard")
        np.testing.assert_array_equal(r[0], [0.0, 0.0, 1.0])

    def test_known_two_center_value(self):
        # Squared distances {0, ln 3} make the soft row (0.75, 0.25);
        # same scalar oracle as the classifier probability example.
        centers = np.array([[0.0], [math.sqrt(math.log(3.0))]])
        r = assign_at(np.array([[0.0]]), centers)
        oracle = [math.exp(0.0), math.exp(-math.log(3.0))]
        oracle = [w / sum(oracle) for w in oracle]
        np.testing.assert_allclose(oracle, [0.75, 0.25], rtol=1e-12)
        np.testing.assert_allclose(r[0], oracle, rtol=1e-9)

    def test_rows_sum_to_one_both_modes(self):
        rng = np.random.default_rng(42)
        for mode in ("soft", "hard"):
            for _ in range(50):
                m, n, d = int(rng.integers(1, 30)), int(rng.integers(2, 6)), int(rng.integers(1, 8))
                feats = rng.normal(size=(m, d)) * 10.0
                centers = rng.normal(size=(n, d))
                r = assign_at(feats, centers, mode=mode)
                np.testing.assert_allclose(r.sum(axis=1), 1.0, atol=1e-9)
                assert np.all(r >= 0.0)

    def test_hard_tie_breaks_low_index(self):
        centers = np.array([[1.0], [-1.0]])
        r = assign_at(np.array([[0.0]]), centers, mode="hard")
        np.testing.assert_array_equal(r[0], [1.0, 0.0])


class TestUpdateCenters:
    """The center update step of the kernel, refine._update."""

    def test_one_hot_reduces_to_plain_means(self):
        feats = np.array([[0.0, 0.0], [2.0, 0.0], [10.0, 4.0], [12.0, 4.0]])
        resp = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        got = update_from(feats, resp, np.zeros((2, 2)))
        np.testing.assert_allclose(got, [[1.0, 0.0], [11.0, 4.0]])

    def test_uniform_rows_give_global_mean(self):
        rng = np.random.default_rng(42)
        feats = rng.normal(size=(12, 3))
        resp = np.full((12, 4), 0.25)
        got = update_from(feats, resp, np.zeros((4, 3)))
        for c in range(4):
            np.testing.assert_allclose(got[c], feats.mean(axis=0), rtol=1e-9)

    def test_hand_weighted_value(self):
        # Hand-evaluated: (0.75*0 + 0.25*2) / (0.75 + 0.25) = 0.5.
        feats = np.array([[0.0], [2.0]])
        resp = np.array([[0.75, 0.25], [0.25, 0.75]])
        got = update_from(feats, resp, np.zeros((2, 1)))
        np.testing.assert_allclose(got[0], [0.5], rtol=1e-12)
        np.testing.assert_allclose(got[1], [1.5], rtol=1e-12)

    def test_zero_mass_center_keeps_previous(self):
        feats = np.array([[1.0], [3.0]])
        resp = np.array([[1.0, 0.0], [1.0, 0.0]])
        got = update_from(feats, resp, np.array([[0.0], [-7.0]]))
        np.testing.assert_allclose(got[0], [2.0])
        np.testing.assert_allclose(got[1], [-7.0])


class TestRefineForQuery:
    """The RefinementTrace that classify_rnnp returns for one query."""

    def test_zero_iterations_is_identity(self):
        ep = small_episode()
        cfg = RnnpConfig(beta=4, iterations=0)
        trace = classify_rnnp(ep, ep.query_features[0], cfg)[2]
        assert np.array_equal(trace.refined_prototypes, trace.initial_prototypes)

    def test_matches_reference_on_1d_instance(self):
        ep = spec_1d_episode()
        cfg = RnnpConfig(beta=1, alpha=0.8, iterations=1)
        trace = classify_rnnp(ep, np.array([0.9]), cfg)[2]
        ref = reference_refine(
            ep.support_features.tolist(), ep.support_observed_labels.tolist(),
            ep.n_way, [0.9], alpha=0.8, beta=1, iterations=1,
            config_seed=cfg.seed, episode_seed=ep.seed,
        )
        np.testing.assert_allclose(
            trace.refined_prototypes, ref["refined_centers"], atol=1e-9
        )
        np.testing.assert_allclose(
            trace.support_responsibilities, ref["support_responsibilities"], atol=1e-9
        )
        assert trace.rectified_labels.tolist() == ref["rectified_labels"]

    def test_labeled_direct_folds_hybrids_into_parent_means(self):
        # No clustering: each hybrid joins its parent's observed class, and the
        # prototypes are those class means, whatever the query.
        ep = corrupt_labels(small_episode(seed=16, n_way=3, k_shot=4),
                            CorruptionSpec(rate=0.25, seed=2))
        cfg = RnnpConfig(beta=2, hybrid_labeling="labeled_direct", seed=3)
        hybrids, parents = _build_hybrids(ep, cfg)
        feats = np.vstack([ep.support_features, hybrids])
        labels = np.concatenate([ep.support_observed_labels, parents])
        want = np.vstack([feats[labels == c].mean(axis=0) for c in range(3)])
        for q in ep.query_features:
            trace = classify_rnnp(ep, q, cfg)[2]
            assert np.array_equal(trace.refined_prototypes, want)
            assert np.array_equal(trace.rectified_labels, ep.support_observed_labels)

    def test_clean_separable_rectifies_nothing(self):
        ep = small_episode(seed=2, spread=12.0)
        cfg = RnnpConfig(beta=4, iterations=3)
        for q in ep.query_features:
            trace = classify_rnnp(ep, q, cfg)[2]
            assert np.array_equal(trace.rectified_labels, ep.support_observed_labels)

    def test_trace_is_deterministic(self):
        ep = small_episode(seed=4)
        cfg = RnnpConfig(beta=3, iterations=3, seed=2)
        a = classify_rnnp(ep, ep.query_features[0], cfg)[2]
        b = classify_rnnp(ep, ep.query_features[0], cfg)[2]
        assert np.array_equal(a.refined_prototypes, b.refined_prototypes)
        assert np.array_equal(a.support_responsibilities, b.support_responsibilities)
        assert np.array_equal(a.rectified_labels, b.rectified_labels)

    def test_responsibility_rows_sum_to_one(self):
        ep = small_episode(seed=6)
        for mode in ("soft", "hard"):
            cfg = RnnpConfig(beta=2, iterations=2, clustering_mode=mode, seed=3)
            trace = classify_rnnp(ep, ep.query_features[2], cfg)[2]
            np.testing.assert_allclose(trace.support_responsibilities.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        ep = small_episode()
        with pytest.raises(InvalidInputError):
            classify_rnnp(ep, np.zeros(ep.dim + 1), RnnpConfig(beta=2))[2]

    def test_impossible_hybrid_count_is_refused_before_allocating(self):
        # 25 supports x 10**15 hybrids each x 64 dims is past numpy's largest array;
        # different_class has no K-1 bound to stop it first.
        ep = small_episode(n_way=5, k_shot=5, dim=64)
        cfg = RnnpConfig(beta=10**15, hybrid_source="different_class")
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError, match="beta="):
                classify_rnnp(ep, ep.query_features[0], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestClassifyRnnp:
    def test_zero_iterations_matches_baseline_bitwise(self):
        ep = small_episode(seed=9)
        cfg = RnnpConfig(beta=4, iterations=0)
        protos = compute_prototypes(ep, "observed")
        for q in ep.query_features:
            probs_r, pred_r, _ = classify_rnnp(ep, q, cfg)
            probs_n, pred_n = classify(protos, q)
            assert np.array_equal(probs_r, probs_n)
            assert pred_r == pred_n

    def test_labeled_direct_full_pairing_equals_plain_prototypes(self):
        # With clean labels and beta = K-1 every ordered same-class pair
        # appears once, so the hybrid cloud averages to the class mean and
        # the direct prototypes collapse to the plain per-class means.
        ep = small_episode(seed=14, n_way=3, k_shot=5)
        cfg = RnnpConfig(beta=4, hybrid_labeling="labeled_direct")
        protos = compute_prototypes(ep, "observed")
        # Independent confirmation of the collapse, by brute force in python.
        for c in range(3):
            rows = [ep.support_features[i] for i in range(15)
                    if ep.support_observed_labels[i] == c]
            cloud = [f for f in rows]
            for i, zi in enumerate(rows):
                for j, zj in enumerate(rows):
                    if i != j:
                        cloud.append(0.8 * zi + 0.2 * zj)
            brute = np.mean(cloud, axis=0)
            np.testing.assert_allclose(brute, protos[c], rtol=1e-9)
        for q in ep.query_features:
            probs_d, pred_d, trace = classify_rnnp(ep, q, cfg)
            probs_n, pred_n = classify(protos, q)
            np.testing.assert_allclose(probs_d, probs_n, rtol=1e-9)
            assert pred_d == pred_n
            assert np.array_equal(trace.rectified_labels, ep.support_observed_labels)

    def test_labeled_direct_performs_no_clustering(self):
        ep = small_episode(seed=15)
        cfg = RnnpConfig(beta=2, hybrid_labeling="labeled_direct", iterations=3, seed=8)
        _, _, trace = classify_rnnp(ep, ep.query_features[0], cfg)
        # One-hot responsibilities on the observed labels.
        expect = np.zeros((15, 3))
        expect[np.arange(15), ep.support_observed_labels] = 1.0
        assert np.array_equal(trace.support_responsibilities, expect)

    @pytest.mark.parametrize("source", HYBRID_SOURCES)
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_no_nan_at_the_feature_limit(self, mode, source):
        # At the 1e150 limit, centres land past it by rounding (blends) or by
        # the draws (noise); their traces are kept, and every distance and
        # probability stays finite.
        rng = np.random.default_rng(12)
        ep = small_episode(seed=12, n_way=3, k_shot=5, dim=64, queries=3)
        limit = np.where(rng.random((15, 64)) < 0.5, -1e150, 1e150)
        ep = corrupt_labels(Episode(**{**vars(ep), "support_features": limit,
                                       "query_features": limit[3:12] * 0.5}),
                            CorruptionSpec(rate=0.4, seed=12))
        cfg = RnnpConfig(beta=4, clustering_mode=mode, hybrid_source=source, seed=3)
        for q in ep.query_features:
            probs, _, trace = classify_rnnp(ep, q, cfg)
            assert np.isfinite(probs).all() and abs(probs.sum() - 1.0) < 1e-12
            assert np.isfinite(trace.refined_prototypes).all()

    def test_translation_invariance_of_predictions(self):
        rng = np.random.default_rng(42)
        ep = small_episode(seed=17, spread=4.0)
        cfg = RnnpConfig(beta=3, iterations=3, seed=6)
        shifted = shift(ep, rng.normal(size=ep.dim) * 20.0)
        for qi in range(len(ep.query_features)):
            _, pred0, tr0 = classify_rnnp(ep, ep.query_features[qi], cfg)
            _, pred1, tr1 = classify_rnnp(shifted, shifted.query_features[qi], cfg)
            assert pred0 == pred1
            assert np.array_equal(tr0.rectified_labels, tr1.rectified_labels)

    # Dim 8 has fewer dimensions than 20 supports and refines in R^d; dim 32
    # refines in the supports' span.
    @pytest.mark.parametrize("dim", [8, 32])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), exponent=st.integers(0, 8),
           source=st.sampled_from(HYBRID_SOURCES))
    def test_offsets_up_to_1e8_change_no_prediction(self, dim, seed, exponent, source):
        # The kernel measures distances from the mean of the supports and
        # hybrids, so a far-off episode keeps the precision of a centred one.
        rng = np.random.default_rng(seed)
        ep = corrupt_labels(small_episode(seed=seed, n_way=4, k_shot=5, dim=dim, queries=5,
                                          spread=float(rng.uniform(1.0, 4.0))),
                            CorruptionSpec(rate=0.4, seed=seed))
        moved = shift(ep, rng.normal(size=ep.dim) * 10.0 ** exponent)
        event(f"offset 1e{exponent}")
        for mode in ("soft", "hard"):
            cfg = RnnpConfig(beta=3, clustering_mode=mode, hybrid_source=source, seed=seed % 997)
            labels = []
            for e in (ep, moved):
                # As in the harness: noise hybrids in R^d, blends on the span episode.
                work = e if source == "gaussian_noise" else _span_episode(e)
                initial = compute_prototypes(work, "observed")
                centers, resp = _refine_queries(work, work.query_features, cfg, initial)
                labels.append((predict(initial, work.query_features),
                               predict(centers, work.query_features),
                               np.argmax(resp, axis=1)))
            for at_origin, far in zip(*labels):
                assert np.array_equal(at_origin, far)

    # What rounding may move when the kernel meets the classes in another
    # order. Over 3000 such draws the worst refined-prototype coordinate was
    # 1.0e-15 of the episode's largest coordinate off, and the worst
    # probability or responsibility 3e-13.
    PROTOTYPE_RTOL = 1e-13
    PROBABILITY_ATOL = 1e-10

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), n_way=st.integers(2, 6), k_shot=st.integers(1, 4),
           dim=st.integers(1, 7), exponent=st.integers(0, 8), duplicates=st.integers(0, 4),
           beta=st.integers(1, 3), iterations=st.integers(0, 3),
           mode=st.sampled_from(["soft", "hard"]), source=st.sampled_from(HYBRID_SOURCES),
           labeling=st.sampled_from(["unlabeled_cluster", "labeled_direct"]))
    def test_class_permutation_equivariance(self, seed, n_way, k_shot, dim, exponent, duplicates,
                                            beta, iterations, mode, source, labeling):
        if source == "same_class" and k_shot == 1:
            source = "different_class"  # one shot has no classmates to blend with
        if source == "gaussian_noise":
            labeling = "unlabeled_cluster"  # noise hybrids have no parent class
        rng = np.random.default_rng(seed)
        base = small_episode(seed=seed, n_way=n_way, k_shot=k_shot, dim=dim, queries=2,
                             spread=float(rng.uniform(0.5, 6.0)))
        support = base.support_features.copy()
        for _ in range(duplicates):  # one support copied over another, of any class
            support[rng.integers(len(support))] = support[rng.integers(len(support))]
        offset = rng.normal(size=dim) * 10.0 ** exponent
        ep = corrupt_labels(relabel(base, np.arange(n_way), support_features=support + offset,
                                    query_features=base.query_features + offset),
                            CorruptionSpec(rate=int(rng.integers(0, k_shot)) / k_shot, seed=seed))
        perm = rng.permutation(n_way)
        cfg = RnnpConfig(beta=min(beta, k_shot - 1) if source == "same_class" else beta,
                         iterations=iterations, clustering_mode=mode, hybrid_source=source,
                         hybrid_labeling=labeling, seed=seed % 1000)
        event(f"{mode} {source}")
        queries = ep.query_features
        probs0, _, traces0 = classify_rnnp(ep, queries, cfg)
        probs1, preds1, traces1 = classify_rnnp(relabel(ep, perm), queries, cfg)
        bound = self.PROTOTYPE_RTOL * (1.0 + np.abs(ep.support_features).max())

        def maps_through(i, sigma):
            """Query i's results agree when original class c is permuted class
            perm[sigma[c]]: within the bounds, and in predictions and rectified
            labels up to ties within them, which go to the lowest index."""
            to = perm[sigma]
            a, b = traces0[i], traces1[i]
            if not (np.allclose(b.refined_prototypes[to], a.refined_prototypes, rtol=0, atol=bound)
                    and np.allclose(probs1[i, to], probs0[i], rtol=0, atol=self.PROBABILITY_ATOL)
                    and np.allclose(b.support_responsibilities[:, to], a.support_responsibilities,
                                    rtol=0, atol=self.PROBABILITY_ATOL)):
                return False
            # The classes the original run could have predicted, given how far
            # the bound lets each distance move.
            dists = _pairwise_raw(queries[i:i + 1], a.refined_prototypes)[0]
            slack = 4.0 * math.sqrt(dists.max() * dim) * bound + 2.0 * dim * bound**2
            nearest = dists <= dists.min() + slack
            resp = a.support_responsibilities
            likeliest = resp >= resp.max(axis=1, keepdims=True) - 2 * self.PROBABILITY_ATOL
            back = np.argsort(to)  # permuted class -> original class
            return bool(nearest[back[preds1[i]]]
                        and likeliest[np.arange(len(resp)), back[b.rectified_labels]].all())

        for i in range(len(queries)):
            assert np.array_equal(traces1[i].initial_prototypes[perm], traces0[i].initial_prototypes)
            # In hard mode every support tied between two classes of one mean
            # goes to the lower index, which the permutation moves; then the
            # two classes trade results.
            sigmas = (swaps_among_equal_means(traces0[i].initial_prototypes) if mode == "hard"
                      else [np.arange(n_way)])
            matched = next((sigma for sigma in sigmas if maps_through(i, sigma)), None)
            assert matched is not None, i
            if not np.array_equal(matched, np.arange(n_way)):
                event("classes of one mean traded results")


def assert_trace_invariants(trace):
    """trace equals, field by field, its rebuild through the public, fully
    checked RefinementTrace constructor, and its arrays are read-only."""
    again = RefinementTrace(initial_prototypes=trace.initial_prototypes,
                            refined_prototypes=trace.refined_prototypes,
                            support_responsibilities=trace.support_responsibilities)
    for name in ("initial_prototypes", "refined_prototypes", "support_responsibilities",
                 "rectified_labels"):
        value, want = getattr(trace, name), getattr(again, name)
        assert np.array_equal(value, want) and value.dtype == want.dtype, name
        assert not value.flags.writeable, name


class TestStackedQueries:
    """classify_rnnp on a (Q, d) stack: Q independent problems in one call."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), n_way=st.sampled_from([2, 3, 5, 8, 10]),
           k_shot=st.integers(1, 5), below=st.booleans(), gap=st.integers(0, 20),
           batch=st.integers(1, 12), beta=st.integers(1, 4), iterations=st.integers(0, 3),
           mode=st.sampled_from(["soft", "hard"]), source=st.sampled_from(HYBRID_SOURCES),
           labeling=st.sampled_from(["unlabeled_cluster", "labeled_direct"]))
    def test_stack_equals_each_query_alone(self, seed, n_way, k_shot, below, gap, batch, beta,
                                           iterations, mode, source, labeling):
        if source == "same_class" and k_shot == 1:
            source = "different_class"  # one shot has no classmates to blend with
        if source == "gaussian_noise":
            labeling = "unlabeled_cluster"  # noise hybrids have no parent class
        kn = n_way * k_shot
        dim = max(1, kn - gap) if below else kn + 2 + gap
        event(f"N={n_way} K={k_shot} {'d <= KN + 1' if below else 'd > KN + 1'} {source}")
        rng = np.random.default_rng(seed)
        ep = small_episode(seed=seed, n_way=n_way, k_shot=k_shot, dim=dim, queries=2,
                           spread=float(rng.uniform(0.5, 6.0)))
        # Fewer than K corrupted per class, so every class keeps an observed support.
        ep = corrupt_labels(ep, CorruptionSpec(rate=int(rng.integers(0, k_shot)) / k_shot,
                                               seed=seed))
        cfg = RnnpConfig(beta=beta if source != "same_class" else min(beta, k_shot - 1),
                         iterations=iterations, clustering_mode=mode, hybrid_source=source,
                         hybrid_labeling=labeling, seed=seed % 1000)
        queries = ep.query_features[rng.permutation(np.arange(batch) % (2 * n_way))]
        initial = compute_prototypes(ep)
        probs, preds, traces = classify_rnnp(ep, queries, cfg)
        assert probs.shape == (batch, n_way) and preds.shape == (batch,)
        assert isinstance(traces, tuple) and len(traces) == batch
        for i, q in enumerate(queries):
            probs_q, pred_q, trace_q = classify_rnnp(ep, q, cfg)
            assert preds[i] == pred_q
            assert np.array_equal(traces[i].rectified_labels, trace_q.rectified_labels)
            np.testing.assert_allclose(traces[i].refined_prototypes, trace_q.refined_prototypes,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(probs[i], probs_q, rtol=0, atol=1e-12)
            assert np.array_equal(traces[i].initial_prototypes, initial)
            if iterations == 0 and labeling == "unlabeled_cluster":
                assert np.array_equal(traces[i].refined_prototypes, initial)
            assert_trace_invariants(traces[i])

    def test_one_query_and_a_stack_of_one(self):
        ep = corrupt_labels(small_episode(seed=3), CorruptionSpec(rate=0.4, seed=3))
        cfg = RnnpConfig(beta=2, seed=1)
        q = ep.query_features[0]
        probs, pred, trace = classify_rnnp(ep, q, cfg)
        assert probs.shape == (3,) and type(pred) is int and isinstance(trace, RefinementTrace)
        assert not probs.flags.writeable
        for stack in (q[None, :], [q.tolist()]):
            probs1, preds1, traces1 = classify_rnnp(ep, stack, cfg)
            assert probs1.shape == (1, 3) and preds1.shape == (1,) and len(traces1) == 1
            assert not probs1.flags.writeable and not preds1.flags.writeable
            assert np.array_equal(probs1[0], probs) and preds1[0] == pred
            for name in ("refined_prototypes", "support_responsibilities", "rectified_labels"):
                assert np.array_equal(getattr(traces1[0], name), getattr(trace, name))
        assert_trace_invariants(trace)

    @pytest.mark.parametrize("stack", [
        np.zeros((0, 6)),
        [[0.0] * 6, [0.0] * 5],
        np.zeros((2, 1, 6)),
        np.zeros((2, 7)),
        [[0.0] * 6, [0.0] * 5 + [math.nextafter(1e150, math.inf)]],
    ], ids=["empty", "ragged", "3-d", "wrong-dim", "past-1e150"])
    def test_bad_stacks_are_refused(self, stack):
        with pytest.raises(InvalidInputError):
            classify_rnnp(small_episode(), stack, RnnpConfig(beta=2))


class TestRefinementTrace:
    def build(self, resp, **extra):
        protos = np.eye(3)
        return RefinementTrace(initial_prototypes=protos, refined_prototypes=protos,
                               support_responsibilities=resp, **extra)

    def test_rectified_labels_are_the_read_only_argmax(self):
        resp = np.random.default_rng(4).dirichlet(np.ones(3), size=20)
        trace = self.build(resp)
        assert trace.rectified_labels.tolist() == np.argmax(resp, axis=1).tolist()
        with pytest.raises(ValueError):
            trace.rectified_labels[0] = 2

    def test_exact_ties_go_to_the_lowest_class(self):
        resp = [[0.5, 0.0, 0.5], [0.25, 0.375, 0.375], [1 / 3, 1 / 3, 1 / 3], [0.0, 0.5, 0.5]]
        assert self.build(resp).rectified_labels.tolist() == [0, 1, 0, 1]

    def test_rectified_labels_are_not_an_argument(self):
        with pytest.raises(TypeError):
            self.build(np.eye(3), rectified_labels=[2, 1, 0])

    @pytest.mark.parametrize("refined, resp", [
        (np.ones((3, 2)), np.eye(3)),
        (np.eye(2), np.eye(3)),
        (np.eye(3), np.full((3, 2), 0.5)),
        ([[1.0, 0.0], [1.0]], np.eye(3)),
    ], ids=["refined-dim", "refined-classes", "resp-columns", "ragged"])
    def test_mismatched_shapes_are_refused(self, refined, resp):
        with pytest.raises(InvalidInputError):
            RefinementTrace(initial_prototypes=np.eye(3), refined_prototypes=refined,
                            support_responsibilities=resp)


class TestRectificationDelta:
    def test_uncorrupted_counts(self):
        ep = small_episode(seed=2, spread=12.0)
        cfg = RnnpConfig(beta=4, iterations=3)
        trace = classify_rnnp(ep, ep.query_features[0], cfg)[2]
        before, after = rectification_delta(ep, trace)
        assert before == 15
        assert after == 15

    def test_before_counts_forced_by_corruption(self):
        pool_rng = np.random.default_rng(1)
        pool = EmbeddingSet(
            features=pool_rng.normal(size=(250, 8)) + 10.0 * np.repeat(np.eye(10, 8), 25, axis=0),
            labels=np.repeat(np.arange(10), 25),
        )
        ep = sample_episode(pool, 5, 5, 5, seed=3)
        noisy = corrupt_labels(ep, CorruptionSpec(rate=0.4, seed=7))
        trace = classify_rnnp(noisy, noisy.query_features[0], RnnpConfig(beta=4))[2]
        before, _ = rectification_delta(noisy, trace)
        assert before == 15

    def test_shape_mismatch_rejected(self):
        ep = small_episode()
        other = small_episode(n_way=4, k_shot=4, seed=3)
        trace = classify_rnnp(other, other.query_features[0], RnnpConfig(beta=2))[2]
        with pytest.raises(InvalidInputError):
            rectification_delta(ep, trace)


class TestAgainstReferenceLoop:
    def test_random_instances_match(self):
        # Moderate-size randomized spot check; the acceptance suite runs
        # the full thousand-instance comparison.
        rng = np.random.default_rng(42)
        for trial in range(60):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(2, 5))
            d = int(rng.integers(1, 6))
            sup = rng.normal(size=(n * k, d)) * 2.0
            labels = np.repeat(np.arange(n), k)
            ep = Episode(
                n_way=n, k_shot=k,
                support_features=sup,
                support_true_labels=labels,
                support_observed_labels=labels.copy(),
                query_features=rng.normal(size=(1, d)),
                query_labels=np.array([0]),
                seed=int(rng.integers(0, 2**31)),
            )
            cfg = RnnpConfig(
                beta=int(rng.integers(1, k)),
                alpha=float(rng.uniform(0.55, 0.95)),
                iterations=int(rng.integers(0, 4)),
                clustering_mode="soft" if rng.random() < 0.5 else "hard",
                seed=int(rng.integers(0, 2**31)),
            )
            q = ep.query_features[0]
            probs, pred, trace = classify_rnnp(ep, q, cfg)
            ref = reference_refine(
                sup.tolist(), labels.tolist(), n, q.tolist(),
                alpha=cfg.alpha, beta=cfg.beta, iterations=cfg.iterations,
                mode=cfg.clustering_mode, config_seed=cfg.seed, episode_seed=ep.seed,
            )
            np.testing.assert_allclose(
                trace.refined_prototypes, ref["refined_centers"], atol=1e-9,
                err_msg=f"trial {trial}",
            )
            assert pred == ref["predicted_class"], f"trial {trial}"


    @pytest.mark.parametrize("source", ["same_class", "different_class"])
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_span_path_matches_in_high_dimensions(self, mode, source):
        # KN + 1 < d throughout, so classify_rnnp refines in the supports'
        # span and maps its centres back; the reference works in R^d.
        for case, (d, exponent) in enumerate([(d, e) for d in (32, 64, 160, 640)
                                              for e in (0, 3, 6)]):
            rng = np.random.default_rng([case, len(mode), len(source)])
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            assert n * k + 1 < d
            ep = shift(small_episode(seed=case, n_way=n, k_shot=k, dim=d, queries=1,
                                     spread=float(rng.uniform(0.3, 1.5))),
                       rng.normal(size=d) * 10.0 ** exponent)
            ep = corrupt_labels(ep, CorruptionSpec(rate=1 / k, seed=case))
            cfg = RnnpConfig(beta=int(rng.integers(1, k)), alpha=float(rng.uniform(0.55, 0.95)),
                             iterations=int(rng.integers(1, 4)), clustering_mode=mode,
                             hybrid_source=source, seed=case)
            # At a 1e6 offset one unit in the last place of a coordinate is 1.2e-10.
            tol = max(1e-9, 1e-14 * float(np.abs(ep.support_features).max()))
            for q in ep.query_features:
                probs, pred, trace = classify_rnnp(ep, q, cfg)
                ref = reference_refine(
                    ep.support_features.tolist(), ep.support_observed_labels.tolist(), n,
                    q.tolist(), alpha=cfg.alpha, beta=cfg.beta, iterations=cfg.iterations,
                    mode=mode, hybrid_source=source, config_seed=cfg.seed,
                    episode_seed=ep.seed)
                where = f"d={d} offset 1e{exponent}"
                np.testing.assert_allclose(trace.refined_prototypes, ref["refined_centers"],
                                           rtol=0, atol=tol, err_msg=where)
                np.testing.assert_allclose(probs, ref["probs"], rtol=0, atol=1e-9, err_msg=where)
                assert pred == ref["predicted_class"], where
                assert trace.rectified_labels.tolist() == ref["rectified_labels"], where


BATCH_PROBLEMS = dict(
    seed=st.integers(0, 2**31 - 1),
    n_way=st.integers(2, 10),
    k_shot=st.integers(2, 6),
    dim=st.integers(1, 8),
    batch=st.integers(1, 20),
    beta=st.integers(1, 5),
    iterations=st.integers(0, 4),
    mode=st.sampled_from(["soft", "hard"]),
    span=st.booleans(),
)


def batch_problem(seed, n_way, k_shot, dim, batch, beta, iterations, mode, span):
    """A corrupted episode, its config, a shuffled batch of its queries, and
    the kernel's shared rows and start centers for that batch. With span,
    the episode lives in R^(KN + 1 + dim) and the problem is the one the
    harness refines: that episode in its supports' span coordinates."""
    rng = np.random.default_rng(seed)
    if span:
        dim += n_way * k_shot + 1
    ep = small_episode(seed=seed, n_way=n_way, k_shot=k_shot, dim=dim, queries=4,
                       spread=float(rng.uniform(0.5, 6.0)))
    # Fewer than K corrupted per class, so every class keeps an observed support.
    wrong = int(rng.integers(0, k_shot))
    ep = corrupt_labels(ep, CorruptionSpec(rate=wrong / k_shot, seed=seed))
    if span:
        ep = _span_episode(ep)
    cfg = RnnpConfig(beta=min(beta, k_shot - 1), iterations=iterations,
                     clustering_mode=mode, seed=seed % 1000)
    # A shuffled batch of any size, queries repeated when it outgrows the episode.
    order = rng.permutation(np.arange(batch) % ep.query_features.shape[0])
    shared = np.vstack([ep.support_features, _build_hybrids(ep, cfg)[0]])
    initial = compute_prototypes(ep, "observed")
    return ep, cfg, ep.query_features[order], shared, initial


class TestBatchedRefinement:
    """Each query of a batch is its own clustering problem (no transduction)."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(**BATCH_PROBLEMS)
    def test_batch_equals_each_query_alone(self, seed, n_way, k_shot, dim, batch, beta,
                                           iterations, mode, span):
        ep, cfg, queries, shared, initial = batch_problem(seed, n_way, k_shot, dim, batch,
                                                          beta, iterations, mode, span)
        event(f"N={n_way} span={span}")
        centers, resp = _cluster_batch(shared, queries, initial, cfg)
        preds = predict(centers, queries)
        kn = ep.support_features.shape[0]
        assert centers.shape == (batch, n_way, kn + 1 if span else dim)
        assert resp.shape == (batch, n_way, shared.shape[0])
        for i, q in enumerate(queries):
            _, pred, trace = classify_rnnp(ep, q, cfg)
            assert preds[i] == pred
            assert np.array_equal(np.argmax(resp[i, :, :kn], axis=0), trace.rectified_labels)
            np.testing.assert_allclose(centers[i], trace.refined_prototypes,
                                       rtol=0, atol=1e-12)
            alone, alone_resp = _cluster_batch(shared, q[None, :], initial, cfg)
            np.testing.assert_allclose(centers[i], alone[0], rtol=0, atol=1e-12)
            assert np.array_equal(np.argmax(resp[i], axis=0), np.argmax(alone_resp[0], axis=0))

    def test_labeled_direct_batch_equals_each_query_alone(self):
        ep = corrupt_labels(small_episode(seed=12, n_way=4, k_shot=5),
                            CorruptionSpec(rate=0.4, seed=12))
        cfg = RnnpConfig(beta=3, hybrid_labeling="labeled_direct", seed=4)
        initial = compute_prototypes(ep, "observed")
        centers, resp = _refine_queries(ep, ep.query_features, cfg, initial)
        assert centers.shape == (16, 4, ep.dim) and resp.shape == (16, 4, 20)
        for i, q in enumerate(ep.query_features):
            trace = classify_rnnp(ep, q, cfg)[2]
            assert np.array_equal(centers[i], trace.refined_prototypes)
            assert np.array_equal(resp[i].T, trace.support_responsibilities)

    @pytest.mark.parametrize("iterations", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_duplicate_centers(self, mode, iterations):
        # Class 2's supports copy class 0's, so their start centers coincide.
        ep = small_episode(seed=8, n_way=3, k_shot=4, dim=3, queries=3)
        sup = ep.support_features.copy()
        sup[8:12] = sup[0:4]
        ep = Episode(n_way=3, k_shot=4, support_features=sup,
                     support_true_labels=ep.support_true_labels,
                     support_observed_labels=ep.support_observed_labels,
                     query_features=ep.query_features, query_labels=ep.query_labels, seed=8)
        cfg = RnnpConfig(beta=2, iterations=iterations, clustering_mode=mode)
        shared = np.vstack([sup, _build_hybrids(ep, cfg)[0]])
        initial = compute_prototypes(ep, "observed")
        assert np.array_equal(initial[0], initial[2])
        queries = ep.query_features
        centers, resp = _cluster_batch(shared, queries, initial, cfg)
        for i, q in enumerate(queries):
            ref = reference_refine(sup.tolist(), ep.support_observed_labels.tolist(), 3,
                                   q.tolist(), alpha=cfg.alpha, beta=cfg.beta,
                                   iterations=iterations, mode=mode, episode_seed=8)
            np.testing.assert_allclose(centers[i], ref["refined_centers"], rtol=0, atol=1e-9)
            if mode == "hard":
                # Exact ties go to the lower index, as in the loop reference.
                assert np.array_equal(resp[i, :, :12].T, ref["support_responsibilities"])
                assert np.array_equal(np.argmax(resp[i, :, :12], axis=0),
                                      ref["rectified_labels"])
                if iterations <= 1:
                    # Assigned at the start centers: no row reaches the upper copy.
                    assert not resp[i, 2].any()
                assert predict(centers, queries)[i] == ref["predicted_class"]
            else:
                # Both copies take equal mass from every row and stay together.
                np.testing.assert_allclose(resp[i, 0], resp[i, 2], rtol=1e-12, atol=0)
                np.testing.assert_allclose(centers[i, 0], centers[i, 2], rtol=0, atol=1e-12)


def span_problem(seed, n_way, k_shot, dim, batch, flat, duplicates, exponent):
    """A corrupted episode refined in its supports' span (KN + 1 < dim), with
    hostile cases: supports moved into a random `flat`-dimensional plane
    (unless 0) and `duplicates` supports copied over a classmate, both of
    which make the span rank-deficient; a batch that holds a support (a
    query inside the span) and, from three classes on, the support mean
    (residual exactly 0) besides episode queries; and every feature moved
    by an offset of about 10**exponent."""
    rng = np.random.default_rng(seed)
    ep = small_episode(seed=seed, n_way=n_way, k_shot=k_shot, dim=dim, queries=4,
                       spread=float(rng.uniform(0.5, 6.0)))
    sup = ep.support_features.copy()
    if flat:
        plane = np.linalg.qr(rng.normal(size=(dim, flat)))[0]
        mean = sup.mean(axis=0)
        sup = mean + (sup - mean) @ plane @ plane.T
    for _ in range(duplicates if k_shot > 1 else 0):
        first = int(rng.integers(0, n_way)) * k_shot
        src, dst = rng.choice(k_shot, 2, replace=False)
        sup[first + dst] = sup[first + src]
    offset = rng.normal(size=dim) * 10.0 ** exponent
    sup += offset
    inside = [sup[int(rng.integers(0, sup.shape[0]))], sup.mean(axis=0)]
    if n_way == 2:
        # Two classes' support mean is the midpoint of their start centres
        # (of equal size): an exact tie, which rounding breaks in any path.
        inside.pop()
    queries = np.vstack([ep.query_features + offset, inside])
    queries = queries[rng.permutation(np.arange(batch) % queries.shape[0])]
    ep = Episode(n_way=n_way, k_shot=k_shot, support_features=sup,
                 support_true_labels=ep.support_true_labels,
                 support_observed_labels=ep.support_observed_labels,
                 query_features=queries, query_labels=np.zeros(batch, dtype=np.int64), seed=seed)
    # Fewer than K corrupted per class, so every class keeps an observed support.
    wrong = int(rng.integers(0, k_shot))
    return corrupt_labels(ep, CorruptionSpec(rate=wrong / k_shot, seed=seed))


class TestSpanCoordinates:
    """Refining in the supports' span gives the full-space kernel's results."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), n_way=st.integers(2, 5), k_shot=st.integers(1, 5),
           extra_dims=st.integers(1, 37), batch=st.integers(1, 20),
           source=st.sampled_from(["same_class", "different_class"]),
           beta=st.integers(1, 4), iterations=st.integers(1, 4),
           flat=st.sampled_from([0, 0, 1, 2]), duplicates=st.sampled_from([0, 0, 1, 3]),
           exponent=st.sampled_from([0, 0, 4, 8]))
    def test_span_path_equals_the_full_space_kernel(self, seed, n_way, k_shot, extra_dims, batch,
                                                    source, beta, iterations, flat, duplicates,
                                                    exponent):
        if source == "same_class" and k_shot == 1:
            source = "different_class"  # one shot has no classmates to blend with
        kn = n_way * k_shot
        dim = min(kn + 1 + extra_dims, 64)
        ep = span_problem(seed, n_way, k_shot, dim, batch, flat, duplicates, exponent)
        event(f"K={k_shot} {source} offset 1e{exponent} plane {flat} duplicates {duplicates}")
        queries = ep.query_features
        work = _span_episode(ep)
        assert work.support_features.shape == (kn, kn + 1)
        assert work.query_features.shape == (batch, kn + 1)
        initial = compute_prototypes(ep, "observed")
        work_initial = compute_prototypes(work, "observed")
        # Centres far from the origin carry their magnitude's rounding in either path.
        tol = 1e-9 * max(1.0, float(np.abs(ep.support_features).max()))
        for mode in ("soft", "hard"):
            cfg = RnnpConfig(beta=beta if source == "different_class" else min(beta, k_shot - 1),
                             iterations=iterations, clustering_mode=mode, hybrid_source=source,
                             seed=seed % 1000)
            shared = np.vstack([ep.support_features, _build_hybrids(ep, cfg)[0]])
            full, full_resp = _cluster_batch(shared, queries, initial, cfg, kept=kn)
            centers, resp = _refine_queries(work, work.query_features, cfg, work_initial)
            assert centers.shape == (batch, n_way, kn + 1)
            assert np.array_equal(predict(centers, work.query_features), predict(full, queries))
            assert np.array_equal(np.argmax(resp, axis=1), np.argmax(full_resp, axis=1))
            # Both coordinate systems share each centre's squared distances to
            # every support and to its own query. Their square roots move by at
            # most the centre's own error, so they are compared.
            for i, q in enumerate(queries):
                in_span = _pairwise_raw(np.vstack([work.support_features,
                                                   work.query_features[i]]), centers[i])
                in_r_d = _pairwise_raw(np.vstack([ep.support_features, q]), full[i])
                np.testing.assert_allclose(np.sqrt(in_span), np.sqrt(in_r_d), rtol=0, atol=tol)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31 - 1), kn=st.integers(2, 30),
           extra_dims=st.integers(1, 300), batch=st.integers(1, 40),
           exponent=st.sampled_from([0, 0, 3, 6]))
    def test_stacked_queries_get_their_one_query_coordinates(self, seed, kn, extra_dims, batch,
                                                            exponent):
        # No transduction in the projection: a query's coordinates, residual
        # included, do not depend on the queries stacked with it.
        rng = np.random.default_rng(seed)
        dim = kn + 1 + extra_dims
        offset = rng.normal(size=dim) * 10.0 ** exponent
        support = rng.normal(size=(kn, dim)) * 10.0 ** rng.uniform(-2, 3) + offset
        queries = rng.normal(size=(batch, dim)) * 3.0 + offset
        queries[0] = support[0]  # a query inside the span

        def projected(rows):
            one_shot = np.arange(kn)
            return _span_episode(Episode(
                n_way=kn, k_shot=1, support_features=support, support_true_labels=one_shot,
                support_observed_labels=one_shot, query_features=rows,
                query_labels=np.zeros(rows.shape[0], dtype=np.int64)))

        work = projected(queries)
        for i in range(batch):
            alone = projected(queries[i:i + 1])
            assert np.array_equal(alone.support_features, work.support_features)
            assert np.array_equal(alone.query_features[0], work.query_features[i])

    @pytest.mark.parametrize("dim, kwargs", [
        (16, {}),
        (40, {}),
        (40, {"clustering_mode": "hard"}),
        (40, {"hybrid_source": "gaussian_noise"}),
        (40, {"hybrid_labeling": "labeled_direct"}),
        (40, {"iterations": 0}),
    ], ids=["kn_plus_1_at_least_d", "soft_blend", "hard_blend", "gaussian_noise",
            "labeled_direct", "zero_iterations"])
    def test_every_library_path_is_the_full_space_path(self, dim, kwargs):
        # Only the harness projects into the supports' span: the library
        # refines each query in R^d, with one _refine_queries call.
        ep = corrupt_labels(small_episode(seed=6, n_way=3, k_shot=5, dim=dim),
                            CorruptionSpec(rate=0.4, seed=6))
        cfg = RnnpConfig(beta=3, seed=2, **kwargs)
        assert (_span_episode(ep) is ep) == (dim == 16)
        initial = compute_prototypes(ep, "observed")
        for q in ep.query_features:
            centers, resp = _refine_queries(ep, q[None, :], cfg, initial)
            trace = classify_rnnp(ep, q, cfg)[2]
            assert trace.refined_prototypes.shape == (3, dim)
            assert np.array_equal(trace.refined_prototypes, centers[0])
            assert np.array_equal(trace.support_responsibilities, resp[0].T)


def in_fresh_thread(fn, *args):
    """fn(*args) run in a new thread, which starts with empty kernel scratch."""
    out = []
    worker = threading.Thread(target=lambda: out.append(fn(*args)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert out, "the thread raised"
    return out[0]


class TestScratch:
    """The kernel's per-thread scratch changes no result and is allocated once."""

    @staticmethod
    def refine(seed, cfg, n_way=4, dim=6, queries=5):
        ep = corrupt_labels(small_episode(seed=seed, n_way=n_way, k_shot=5, dim=dim,
                                          queries=queries),
                            CorruptionSpec(rate=0.4, seed=seed))
        work = _span_episode(ep)
        return _refine_queries(work, work.query_features, cfg, compute_prototypes(work, "observed"))

    @staticmethod
    def scratch():
        """This thread's scratch buffers, by name."""
        return dict(vars(_SCRATCH))

    @pytest.mark.parametrize("iterations", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_leftovers_of_a_larger_call_change_nothing(self, mode, iterations):
        cfg = RnnpConfig(beta=3, iterations=iterations, clustering_mode=mode, seed=5)
        self.refine(20, cfg, n_way=6, dim=9, queries=8)
        got = self.refine(21, cfg)
        for a, b in zip(got, in_fresh_thread(self.refine, 21, cfg)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_threads_match_serial_calls(self, mode):
        # More threads than a small machine's cores, switching often: a
        # scratch shared between threads would mix their episodes.
        cfg = RnnpConfig(beta=3, iterations=3, clustering_mode=mode, seed=5)
        seeds = (23, 24, 25, 26)
        serial = {seed: self.refine(seed, cfg) for seed in seeds}
        results = {seed: [] for seed in seeds}

        def repeat(seed):
            for _ in range(20):
                results[seed].append(self.refine(seed, cfg))

        workers = [threading.Thread(target=repeat, args=(seed,)) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        for seed in seeds:
            assert len(results[seed]) == 20
            for got in results[seed]:
                for a, b in zip(got, serial[seed]):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_same_shapes_allocate_nothing_new(self, mode):
        cfg = RnnpConfig(beta=3, iterations=3, clustering_mode=mode, seed=5)

        def two_calls():
            self.refine(21, cfg)
            first = {k: id(v) for k, v in self.scratch().items()}
            self.refine(22, cfg)
            return first, {k: id(v) for k, v in self.scratch().items()}

        first, second = in_fresh_thread(two_calls)
        assert first
        assert second == first

    @pytest.mark.parametrize("iterations", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_outputs_never_share_memory_with_the_scratch(self, mode, iterations):
        cfg = RnnpConfig(beta=3, iterations=iterations, clustering_mode=mode, seed=5)
        first = self.refine(21, cfg)
        kept = [a.copy() for a in first]
        ep = corrupt_labels(small_episode(seed=22, n_way=4, k_shot=5, dim=6, queries=5),
                            CorruptionSpec(rate=0.4, seed=22))
        trace = classify_rnnp(ep, ep.query_features[0], cfg)[2]
        outputs = [*first, *self.refine(22, cfg), trace.refined_prototypes,
                   trace.support_responsibilities]
        buffers = self.scratch().values()
        assert buffers
        for out in outputs:
            assert not any(np.shares_memory(out, buf) for buf in buffers)
        for got, want in zip(first, kept):
            assert np.array_equal(got, want)


class TestFirstMinOnehot:
    """Hard assignment's one-hot equals np.argmin's, ties and NaN included."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(5, 75, 125), (5, 1, 125), (5, 75, 1), (1, 3, 4)]),
           seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 4),
           nan_share=st.sampled_from([0.0, 0.0, 0.05]))
    def test_equals_argmin_onehot(self, shape, seed, levels, nan_share):
        # Few distinct values force ties, often several per row.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, levels, shape).astype(np.float64) * 0.5 - 1.0
        x[rng.random(shape) < nan_share] = np.nan
        expected = np.argmin(x, axis=0) == np.arange(shape[0])[:, None, None]
        got = _first_min_onehot(x)
        assert got.dtype == np.float64 and got.shape == shape
        assert np.array_equal(got, expected.astype(np.float64))
