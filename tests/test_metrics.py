"""Unit tests for accuracy aggregation and paired comparison."""

import json
import math
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from rnnp.errors import InvalidInputError
from rnnp.metrics import EvalReport, episode_accuracy, mean_ci95, paired_delta


def make_report(accs, method="m", seed=7, rate=0.4, rect=None):
    return EvalReport.from_accuracies(
        method=method, corruption_rate=rate, n_way=5, k_shot=5,
        queries_per_class=15, per_episode_accuracies=list(accs),
        skipped_episodes=0, seed=seed, episode_indices=list(range(len(accs))),
        per_episode_rectification=rect,
    )


def init_args(report):
    """The report's constructor arguments, by name."""
    return {f.name: getattr(report, f.name) for f in fields(EvalReport) if f.init}


class TestEpisodeAccuracy:
    def test_all_correct(self):
        assert episode_accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_correct(self):
        assert episode_accuracy([0, 0, 0], [1, 2, 3]) == 0.0

    def test_three_of_four(self):
        assert episode_accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            episode_accuracy([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            episode_accuracy([1], [1, 2])


class TestMeanCi95:
    def test_constant_list_has_zero_width(self):
        # 0.5 is exact in binary, so the deviations are exactly zero
        mean, ci = mean_ci95([0.5] * 50)
        assert mean == 0.5
        assert ci == 0.0

    def test_zero_one_pair(self):
        # Independent hand computation: mean 0.5; sample std with the n-1
        # denominator is sqrt(((0.5)^2 + (0.5)^2) / 1) = sqrt(0.5); the
        # half-width is 1.96 * sqrt(0.5) / sqrt(2) = 0.98.
        oracle = 1.96 * math.sqrt(0.5) / math.sqrt(2.0)
        assert abs(oracle - 0.98) < 1e-12
        mean, ci = mean_ci95([0.0, 1.0])
        assert mean == 0.5
        np.testing.assert_allclose(ci, 0.98, rtol=1e-12)

    def test_quadrupling_n_halves_width(self):
        rng = np.random.default_rng(42)
        base = rng.uniform(size=200).tolist()
        _, ci_1 = mean_ci95(base)
        _, ci_4 = mean_ci95(base * 4)
        # Same sample std (up to the n-1 correction), four times the count.
        np.testing.assert_allclose(ci_4, ci_1 / 2.0, rtol=5e-3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(size=101).tolist()
        mean_a, ci_a = mean_ci95(values)
        shuffled = list(values)
        rng.shuffle(shuffled)
        mean_b, ci_b = mean_ci95(shuffled)
        np.testing.assert_allclose([mean_a, ci_a], [mean_b, ci_b], rtol=1e-9)

    def test_short_list_rejected(self):
        with pytest.raises(InvalidInputError):
            mean_ci95([0.5])


class TestPairedDelta:
    def test_identical_reports_yield_zeros(self):
        a = make_report([0.2, 0.5, 0.9, 0.4])
        delta, ci, win = paired_delta(a, a)
        assert delta == 0.0
        assert ci == 0.0
        assert win == 0.0

    def test_constant_offset(self):
        base = [0.3, 0.5, 0.7, 0.6]
        a = make_report([x + 0.1 for x in base], method="a")
        b = make_report(base, method="b")
        delta, ci, win = paired_delta(a, b)
        np.testing.assert_allclose(delta, 0.1, rtol=1e-9)
        np.testing.assert_allclose(ci, 0.0, atol=1e-9)
        assert win == 1.0

    def test_win_rate_counts_strict_wins(self):
        a = make_report([0.5, 0.5, 0.9, 0.1])
        b = make_report([0.5, 0.4, 0.5, 0.5])
        _, _, win = paired_delta(a, b)
        assert win == 0.5

    def test_mismatched_lengths_rejected(self):
        a = make_report([0.5, 0.6])
        b = make_report([0.5, 0.6, 0.7])
        with pytest.raises(InvalidInputError):
            paired_delta(a, b)

    def test_mismatched_seeds_rejected(self):
        a = make_report([0.5, 0.6], seed=7)
        b = make_report([0.5, 0.6], seed=8)
        with pytest.raises(InvalidInputError):
            paired_delta(a, b)


class TestEvalReport:
    def test_mean_and_ci_match_the_list(self):
        accs = [0.2, 0.4, 0.9, 0.8, 0.5]
        r = make_report(accs)
        want_mean, want_ci = mean_ci95(accs)
        assert r.mean_accuracy == want_mean
        assert r.ci95 == want_ci
        assert r.n_episodes == 5

    def test_to_dict_carries_the_aggregates(self):
        r = make_report([0.25, 0.75, 0.5], rect=[[15, 16.0], [14, 17.5], [16, 15.25]])
        d = r.to_dict()
        for key in ("mean_accuracy", "ci95", "n_episodes", "rectification"):
            assert d[key] == getattr(r, key)

    def test_report_json_rebuilds_through_the_constructor(self):
        r = EvalReport.from_accuracies(
            method="m", corruption_rate=0.4, n_way=5, k_shot=5, queries_per_class=15,
            per_episode_accuracies=[0.25, 0.75], skipped_episodes=1, seed=7,
            per_episode_rectification=[[15, 16.0], [15, 16.5]], episode_indices=[0, 2])
        d = json.loads(json.dumps(r.to_dict()))
        again = EvalReport(**{key: d[key] for key in init_args(r)})
        assert again == r
        assert paired_delta(again, r) == (0.0, 0.0, 0.0)

    def test_rectification_is_the_mean_of_the_per_episode_pairs(self):
        assert make_report([0.25, 0.75]).rectification is None
        r = make_report([0.25, 0.75, 0.5], rect=[[15, 16.0], [14, 17.5], [16, 15.25]])
        assert r.rectification == {"mean_correct_before": 15.0, "mean_correct_after": 16.25}

    @pytest.mark.parametrize("key, value", [
        ("per_episode_rectification", [1, 2]),
        ("per_episode_rectification", [[1], [2]]),
        ("per_episode_rectification", [["15", "16"], ["15", "16.5"]]),
        ("per_episode_rectification", [[True, 1.0], [15, 16.5]]),
        ("per_episode_rectification", [[math.nan, 16.0], [15, 16.5]]),
        ("per_episode_rectification", [[-1, 16.0], [15, 16.5]]),
        ("per_episode_rectification", [[1e9, 5], [0, 0]]),
        ("per_episode_rectification", [[15, 25.5], [15, 16.5]]),
        ("per_episode_rectification", 5),
        ("per_episode_accuracies", ["x", 0.75]),
    ], ids=["ints", "singletons", "strings", "bool", "nan", "negative", "before_above_nk",
            "after_above_nk", "not_a_list", "string_accuracy"])
    def test_constructor_rejects_hostile_lists(self, key, value):
        args = init_args(make_report([0.25, 0.75], rect=[[15, 16.0], [15, 16.5]]))
        with pytest.raises(InvalidInputError):
            EvalReport(**{**args, key: value})

    @pytest.mark.parametrize("key, value", [
        ("skipped_episodes", "x"),
        ("episode_indices", None),
        ("episode_indices", [0, 2, 3]),
        ("episode_indices", "02"),
        ("episode_indices", [1, 1]),
        ("episode_indices", [2, 0]),
        ("n_way", "5"),
        ("corruption_rate", "0.2"),
        ("seed", "7"),
    ], ids=["skipped_string", "indices_none", "indices_too_many", "indices_string",
            "indices_repeated", "indices_decreasing", "n_way_string", "rate_string", "seed_string"])
    def test_constructor_rejects_hostile_fields(self, key, value):
        args = init_args(EvalReport.from_accuracies(
            method="m", corruption_rate=0.4, n_way=5, k_shot=5, queries_per_class=15,
            per_episode_accuracies=[0.25, 0.75], skipped_episodes=1, seed=7,
            episode_indices=[0, 2],
        ))
        with pytest.raises(InvalidInputError):
            EvalReport(**{**args, key: value})

    def test_mean_and_ci_are_not_constructor_arguments(self):
        mean, ci = mean_ci95([0.25, 0.75])
        with pytest.raises(TypeError):
            EvalReport(method="m", corruption_rate=0.4, n_way=5, k_shot=5, queries_per_class=15,
                       per_episode_accuracies=[0.25, 0.75], mean_accuracy=mean, ci95=ci,
                       skipped_episodes=0, seed=7, episode_indices=[0, 1])

    @pytest.mark.parametrize("key", ["per_episode_accuracies", "mean_accuracy", "method",
                                     "seed"])
    def test_fields_cannot_be_assigned(self, key):
        r = make_report([0.25, 0.75])
        with pytest.raises(FrozenInstanceError):
            setattr(r, key, getattr(r, key))

    @pytest.mark.parametrize("edit", [
        lambda r: r.per_episode_accuracies.append(0.0),
        lambda r: r.episode_indices.__setitem__(0, 5),
        lambda r: r.per_episode_rectification.append((15, 16.0)),
        lambda r: r.per_episode_rectification[0].__setitem__(1, 25.0),
    ], ids=["accuracies", "indices", "rectification", "rectification_pair"])
    def test_per_episode_sequences_cannot_be_edited_in_place(self, edit):
        r = EvalReport.from_accuracies(
            method="m", corruption_rate=0.4, n_way=5, k_shot=5, queries_per_class=15,
            per_episode_accuracies=[0.25, 0.75], skipped_episodes=0, seed=7,
            per_episode_rectification=[[15, 16.0], [15, 16.5]], episode_indices=[0, 2])
        with pytest.raises((AttributeError, TypeError)):
            edit(r)

    def test_editing_the_rectification_dict_leaves_the_report_alone(self):
        r = make_report([0.25, 0.75], rect=[[15, 16.0], [15, 16.5]])
        r.rectification["mean_correct_after"] = 0.0
        assert r.rectification == {"mean_correct_before": 15.0, "mean_correct_after": 16.25}

    def test_replace_derives_the_aggregates_again(self):
        r = replace(make_report([0.25, 0.75]), per_episode_accuracies=[0.5, 1.0, 0.0],
                    episode_indices=[0, 1, 2], method="other")
        assert (r.method, r.n_episodes) == ("other", 3)
        assert (r.mean_accuracy, r.ci95) == mean_ci95([0.5, 1.0, 0.0])

    def test_one_episode_rejected(self):
        with pytest.raises(InvalidInputError, match="at least 2"):
            make_report([0.5])

    def test_rectification_needs_one_pair_per_episode(self):
        with pytest.raises(InvalidInputError):
            make_report([0.25, 0.75], rect=[])
