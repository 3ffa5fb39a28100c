"""Harness behavior: pairing, ordering, determinism, worker independence."""

import inspect
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rnnp.datagen import MixtureSpec, generate_mixture, write_embeddings
from rnnp.episodes import EmbeddingSet, Episode
from rnnp import harness
from rnnp.cli import main
from rnnp.errors import InvalidInputError
from rnnp.harness import (
    ExperimentConfig,
    MethodSpec,
    default_config,
    run_experiment,
    run_sweep,
    save_rectification,
    save_reports,
    save_sweep,
)
from rnnp.metrics import paired_delta
from rnnp.refine import RnnpConfig


def tiny_mixture(separation=6.0, seed=3):
    return MixtureSpec(num_classes=6, dim=4, separation=separation,
                       samples_per_class=10, seed=seed)


def tiny_config(**overrides):
    base = dict(
        mixture=tiny_mixture(),
        methods=(
            MethodSpec(method="nnp"),
            MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2, iterations=2)),
        ),
        n_way=3,
        k_shot=5,
        queries_per_class=4,
        n_episodes=6,
        corruption_rates=(0.0, 0.4),
        seed=5,
        workers=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# Every refinement path but the default one, besides the baseline.
OFF_DEFAULT_METHODS = (MethodSpec(method="nnp"),) + tuple(
    MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2, **kwargs), label=label)
    for label, kwargs in [("hard", {"clustering_mode": "hard"}),
                          ("different", {"hybrid_source": "different_class"}),
                          ("noise", {"hybrid_source": "gaussian_noise"}),
                          ("direct", {"hybrid_labeling": "labeled_direct"}),
                          ("zero", {"iterations": 0})])


def test_harness_imports_functions_only_from_traced_layers():
    # perfbench's tracer wraps every function harness imports from another
    # rnnp module and files its span under the defining module; its selftest
    # needs those layers plus harness.self_s to add up to the run time. The
    # package holds only those layers, harness, cli and errors, so a new
    # helper module outside the traced layers shows up here.
    layers = {"datagen", "episodes", "nnp", "refine", "metrics"}
    modules = {path.stem for path in Path(harness.__file__).parent.glob("*.py")}
    assert modules == layers | {"harness", "cli", "errors", "__init__"}
    imported = {name: obj.__module__ for name, obj in vars(harness).items()
                if inspect.isfunction(obj) and obj.__module__.startswith("rnnp.")
                and obj.__module__ != harness.__name__}
    assert "_refine_queries" in imported
    assert {name: module for name, module in imported.items()
            if module.split(".", 1)[1] not in layers} == {}


class TestConfigValidation:
    def test_needs_exactly_one_data_source(self):
        with pytest.raises(InvalidInputError):
            ExperimentConfig(methods=(MethodSpec(method="nnp"),))
        with pytest.raises(InvalidInputError):
            ExperimentConfig(methods=(MethodSpec(method="nnp"),),
                             mixture=tiny_mixture(), data_path="x.csv", data_format="csv")
        with pytest.raises(InvalidInputError):  # an int would be opened as a file descriptor
            ExperimentConfig(methods=(MethodSpec(method="nnp"),), data_path=0, data_format="csv")

    @pytest.mark.parametrize("source, data_format", [
        ({"data_path": "x.csv"}, "jsonl"),
        ({"data_path": "x.csv"}, None),
        ({"mixture": tiny_mixture()}, "xml"),
        ({"mixture": tiny_mixture()}, "csv"),
    ], ids=["data_path_jsonl", "data_path_unset", "mixture_xml", "mixture_csv"])
    def test_data_format_is_csv_with_a_data_path_and_unset_without(self, source, data_format):
        with pytest.raises(InvalidInputError, match="data_format must be 'csv' with a data_path"):
            ExperimentConfig(methods=(MethodSpec(method="nnp"),), data_format=data_format,
                             **source)
        ExperimentConfig(methods=(MethodSpec(method="nnp"),), **source,
                         data_format="csv" if "data_path" in source else None)

    def test_rejects_non_integral_rate_for_k_shot(self):
        with pytest.raises(InvalidInputError):
            tiny_config(corruption_rates=(0.3,))

    def test_rejects_duplicate_rates(self):
        with pytest.raises(InvalidInputError, match="duplicate corruption rates"):
            tiny_config(corruption_rates=(0.4, 0.0, 0.4))

    def test_rejects_beta_above_k_minus_one(self):
        with pytest.raises(InvalidInputError):
            tiny_config(methods=(
                MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=5)),
            ))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(InvalidInputError):
            tiny_config(methods=(
                MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2), label="m"),
                MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=3), label="m"),
            ))

    def test_method_spec_shape(self):
        with pytest.raises(InvalidInputError):
            MethodSpec(method="rnnp")
        with pytest.raises(InvalidInputError):
            MethodSpec(method="nnp", rnnp=RnnpConfig(beta=2))
        with pytest.raises(InvalidInputError):
            MethodSpec(method="other")
        assert MethodSpec(method="nnp").label == "nnp"

    def test_methods_must_be_iterable(self):
        with pytest.raises(InvalidInputError, match=r"^expected methods of type tuple, got int$"):
            tiny_config(methods=5)

    # A method entry of a config file is read into a MethodSpec, whose
    # constructor applies the same rules as for a caller in Python.
    @pytest.mark.parametrize("entry, message", [
        ({"method": "nnp", "beta": 2, "alpha": 0.5},
         r"^method 'nnp' takes no hyper-parameters, got \{'beta': 2, 'alpha': 0.5\}$"),
        ({"method": "rnnp", "alpha": 0.5}, r"^bad rnnp method keys: .*'beta'"),
        ({"method": "knn"}, r"^method must be one of \('nnp', 'rnnp'\), got 'knn'$"),
        ({"label": "m"}, r"^method must be one of \('nnp', 'rnnp'\), got None$"),
        ({"method": "nnp", "label": 3}, r"^expected label of type str, got int$"),
    ], ids=["nnp_with_keys", "rnnp_without_beta", "unknown_method", "missing_method",
            "label_not_str"])
    def test_from_dict_refuses_bad_method_entries(self, entry, message):
        d = tiny_config().to_dict()
        d["methods"] = [entry]
        with pytest.raises(InvalidInputError, match=message):
            ExperimentConfig.from_dict(d)

    def test_round_trip_through_dict(self):
        cfg = tiny_config()
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.methods == cfg.methods
        assert again.mixture == cfg.mixture

    def test_runtime_knobs_stay_out_of_snapshot(self):
        d = tiny_config(workers=4).to_dict()
        assert "workers" not in d

    def test_from_dict_rejects_unknown_keys(self):
        d = tiny_config().to_dict()
        d["typo"] = 1
        with pytest.raises(InvalidInputError):
            ExperimentConfig.from_dict(d)

    def test_default_config_is_valid(self):
        cfg = default_config()
        assert cfg.n_way == 5 and cfg.k_shot == 5
        assert [m.method for m in cfg.methods] == ["nnp", "rnnp"]
        assert cfg.corruption_rates == (0.0, 0.2, 0.4)


class TestRunExperiment:
    def test_reports_are_method_major(self):
        cfg = tiny_config()
        reports = run_experiment(cfg)
        got = [(r.method, r.corruption_rate) for r in reports]
        want = [(m.label, rate) for m in cfg.methods for rate in cfg.corruption_rates]
        assert got == want

    def test_streams_are_paired(self):
        cfg = tiny_config()
        reports = {(r.method, r.corruption_rate): r for r in run_experiment(cfg)}
        a = reports[("rnnp", 0.4)]
        b = reports[("nnp", 0.4)]
        # same episodes in the same order, so a paired comparison is legal
        assert a.episode_indices == b.episode_indices
        paired_delta(a, b)
        # rates share episode composition too (corruption seed is rate-free)
        paired_delta(reports[("nnp", 0.0)], reports[("nnp", 0.4)])

    def test_zero_iterations_matches_baseline_exactly(self):
        cfg = tiny_config(methods=(
            MethodSpec(method="nnp"),
            MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2, iterations=0)),
        ))
        reports = {(r.method, r.corruption_rate): r for r in run_experiment(cfg)}
        for rate in cfg.corruption_rates:
            assert reports[("rnnp", rate)].per_episode_accuracies == \
                reports[("nnp", rate)].per_episode_accuracies

    def test_rerun_is_identical(self):
        cfg = tiny_config()
        first = [r.to_dict() for r in run_experiment(cfg)]
        second = [r.to_dict() for r in run_experiment(cfg)]
        assert first == second

    def test_worker_count_does_not_change_results(self):
        serial = [r.to_dict() for r in run_experiment(tiny_config(n_episodes=8, workers=1))]
        parallel = [r.to_dict() for r in run_experiment(tiny_config(n_episodes=8, workers=2))]
        assert serial == parallel

    def test_default_workers_count_only_usable_cpus(self, monkeypatch):
        # Eight CPUs on the machine, one in the affinity mask: no process pool.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        assert harness._usable_cpus() == 1

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for one usable CPU")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        assert len(run_experiment(tiny_config(n_episodes=8, workers=None))) == 4

    def test_pool_never_outgrows_episodes_or_cpus(self, monkeypatch):
        started = []

        class InlinePool:
            """Records the process count asked for and runs the tasks inline."""

            def __init__(self, max_workers, initializer, initargs):
                started.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_WORKER_POOL", None)
        monkeypatch.setattr(harness, "_WORKER_CONFIG", None)
        serial = [r.to_dict() for r in run_experiment(tiny_config(n_episodes=8, workers=1))]
        assert started == []
        for cpus, workers, want in ((64, 100000, 8), (64, 64, 8), (64, 3, 3), (64, None, 8),
                                    (4, 100000, 4), (4, None, 4)):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            reports = run_experiment(tiny_config(n_episodes=8, workers=workers))
            assert started.pop() == want
            assert [r.to_dict() for r in reports] == serial

    def test_episodes_are_not_validated_again(self, monkeypatch):
        # Sampled and corrupted episodes come from checked data; the public
        # Episode constructor's copies and checks stay off the hot path.
        calls = []
        post_init = Episode.__post_init__
        monkeypatch.setattr(Episode, "__post_init__",
                            lambda self: calls.append(1) or post_init(self))
        run_experiment(tiny_config())
        assert calls == []
        Episode(n_way=2, k_shot=1, support_features=np.eye(2), support_true_labels=[0, 1],
                support_observed_labels=[0, 1], query_features=np.eye(2), query_labels=[0, 1])
        assert calls == [1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pool_with_too_few_classes_is_refused(self, tmp_path, monkeypatch, capsys, workers):
        # sample_episode holds the rule; with two workers the parent samples
        # episode 0 before it starts a process pool, so none starts.
        started = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        cfg = tiny_config(mixture=MixtureSpec(3, 4, 6.0, 10, seed=3), n_way=5, workers=workers)
        with pytest.raises(InvalidInputError, match="pool has 3 classes"):
            run_experiment(cfg)
        assert started == []
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        code = main(["eval", "--config", str(path), "--workers", str(workers),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error: pool has 3 classes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_default_workers_without_affinity_use_cpu_count(self, monkeypatch):
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 3)
        assert harness._usable_cpus() == 3
        monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1

    def test_rectification_fields_only_on_rnnp(self):
        reports = {(r.method, r.corruption_rate): r for r in run_experiment(tiny_config())}
        nnp_rep = reports[("nnp", 0.4)]
        rnnp_rep = reports[("rnnp", 0.4)]
        assert nnp_rep.rectification is None
        assert rnnp_rep.rectification is not None
        assert len(rnnp_rep.per_episode_rectification) == rnnp_rep.n_episodes
        # 40% of 5 shots corrupted in each of 3 classes: 9 of 15 labels correct
        for before, after in rnnp_rep.per_episode_rectification:
            assert before == 9
            assert 0.0 <= after <= 15.0
        assert rnnp_rep.rectification == {
            "mean_correct_before": float(np.mean([b for b, _ in rnnp_rep.per_episode_rectification])),
            "mean_correct_after": float(np.mean([a for _, a in rnnp_rep.per_episode_rectification])),
        }
        assert rnnp_rep.rectification["mean_correct_before"] == 9.0

    def test_degenerate_corruptions_are_skipped_for_all_methods(self):
        # K=1 at rate 1 reassigns every label; only derangement outcomes
        # keep all classes non-empty, the rest must be skipped.
        cfg = tiny_config(
            methods=(MethodSpec(method="nnp"),
                     MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=1, hybrid_source="different_class"))),
            k_shot=1, queries_per_class=2, n_episodes=40, corruption_rates=(1.0,),
        )
        reports = run_experiment(cfg)
        assert reports[0].skipped_episodes > 0
        assert reports[0].skipped_episodes + reports[0].n_episodes == 40
        assert reports[0].episode_indices == reports[1].episode_indices
        idx = reports[0].episode_indices
        assert idx == tuple(sorted(idx)) and len(set(idx)) == len(idx)


class TestSweep:
    def test_sweep_needs_single_rnnp_method_and_rate(self):
        with pytest.raises(InvalidInputError):
            run_sweep(tiny_config(), "alpha", [0.5])
        solo = tiny_config(methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),))
        with pytest.raises(InvalidInputError):
            run_sweep(solo, "alpha", [0.5])  # two corruption rates configured
        with pytest.raises(InvalidInputError):
            run_sweep(solo, "gamma", [0.5])

    def test_iterations_sweep_hits_baseline_at_zero(self):
        solo = tiny_config(
            methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
            corruption_rates=(0.4,),
        )
        reports = run_sweep(solo, "iterations", [0, 2])
        assert [r.method for r in reports] == ["0", "2"]
        baseline = run_experiment(tiny_config(methods=(MethodSpec(method="nnp"),),
                                              corruption_rates=(0.4,)))[0]
        assert reports[0].per_episode_accuracies == baseline.per_episode_accuracies

    def test_sweep_loads_the_pool_once(self, tmp_path, monkeypatch):
        solo = tiny_config(methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
                           corruption_rates=(0.4,), n_episodes=4)
        calls = []
        load = harness.load_pool
        monkeypatch.setattr(harness, "load_pool", lambda cfg: calls.append(cfg) or load(cfg))
        swept = run_sweep(solo, "alpha", [0.4, 0.6, 0.8])
        assert calls == [solo]
        # The same table as one run_experiment per value, each loading its pool.
        each = []
        for v in (0.4, 0.6, 0.8):
            cfg = tiny_config(methods=(MethodSpec(method="rnnp",
                                                  rnnp=RnnpConfig(beta=2, alpha=v)),),
                              corruption_rates=(0.4,), n_episodes=4)
            each.append(replace(run_experiment(cfg)[0], method=repr(v)))
        a = save_sweep("alpha", swept, tmp_path / "a")
        b = save_sweep("alpha", each, tmp_path / "b")
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
        assert [r.to_dict() for r in swept] == [r.to_dict() for r in each]

    def test_parallel_sweep_starts_one_process_pool(self, monkeypatch):
        started = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        solo = tiny_config(methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
                           corruption_rates=(0.4,), n_episodes=8, workers=2)
        swept = run_sweep(solo, "alpha", [0.4, 0.6, 0.8])
        assert started == [2]
        serial = run_sweep(replace(solo, workers=1), "alpha", [0.4, 0.6, 0.8])
        assert started == [2]
        assert [r.to_dict() for r in swept] == [r.to_dict() for r in serial]

    def test_reports_are_labeled_by_value(self):
        solo = tiny_config(methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
                           corruption_rates=(0.4,), n_episodes=4)
        reports = run_sweep(solo, "alpha", [0.5, np.float32(0.25)])
        assert [r.method for r in reports] == ["0.5", "0.25"]
        reports = run_sweep(solo, "beta", [2, np.int64(1), 3.0])
        assert [r.method for r in reports] == ["2", "1", "3"]

    @pytest.mark.parametrize("axis, values", [("beta", [1, 1]), ("beta", [1, 1.0]),
                                              ("alpha", [0.5, 0.5])])
    def test_repeated_value_rejected_before_any_episode(self, monkeypatch, axis, values):
        monkeypatch.setattr(harness, "load_pool", lambda cfg: pytest.fail("pool loaded"))
        solo = tiny_config(methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
                           corruption_rates=(0.4,))
        with pytest.raises(InvalidInputError, match="duplicate method labels"):
            run_sweep(solo, axis, values)

    def test_beta_sweep_rejects_fractional_values(self):
        solo = tiny_config(methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
                           corruption_rates=(0.4,))
        with pytest.raises(InvalidInputError):
            run_sweep(solo, "beta", [1.5])


class TestRectificationAnalysis:
    def test_clean_separable_episodes_keep_all_labels(self, tmp_path):
        cfg = tiny_config(
            mixture=tiny_mixture(separation=25.0),
            methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
            corruption_rates=(0.0,),
            n_episodes=4,
        )
        report = run_experiment(cfg)[0]
        text = Path(save_rectification(report, tmp_path)).read_text(encoding="utf-8")
        # Episode index, before as an int, after as a float's repr; then the means.
        assert text.splitlines()[1:] == [f"{i},15,15.0" for i in range(4)] + ["mean,15.0,15.0"]
        assert report.rectification == {"mean_correct_before": 15.0, "mean_correct_after": 15.0}

    def test_report_without_rectification_is_refused(self, tmp_path):
        nnp, rnnp = run_experiment(tiny_config(n_episodes=4, corruption_rates=(0.4,)))
        assert nnp.per_episode_rectification is None
        for report in (nnp, replace(rnnp, episode_indices=None)):
            with pytest.raises(InvalidInputError, match="needs an rnnp report with episode indices"):
                save_rectification(report, tmp_path / "out")
        assert not (tmp_path / "out").exists()


class TestSaving:
    def test_report_files_round_trip(self, tmp_path):
        cfg = tiny_config(n_episodes=4)
        reports = run_experiment(cfg)
        json_path, csv_path = save_reports(cfg, reports, tmp_path)
        payload = json.loads(Path(json_path).read_text(encoding="utf-8"))
        assert payload["config"] == cfg.to_dict()
        assert payload["reports"] == [json.loads(json.dumps(r.to_dict())) for r in reports]
        lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "method,corruption_rate,k_shot,mean,ci95,n_episodes"
        assert len(lines) == 1 + len(reports)

    def test_path_data_path_is_saved_as_a_string(self, tmp_path):
        data = tmp_path / "pool.csv"
        write_embeddings(generate_mixture(tiny_mixture()), data)
        cfg = tiny_config(mixture=None, data_path=data, data_format="csv", n_episodes=4)
        assert cfg.data_path == str(data)
        json_path, _ = save_reports(cfg, run_experiment(cfg), tmp_path / "out")
        payload = json.loads(Path(json_path).read_text(encoding="utf-8"))
        assert payload["config"]["data_path"] == str(data)
        assert payload["reports"][0]["seed"] == cfg.seed

    def test_bytes_data_path_rejected(self):
        with pytest.raises(InvalidInputError, match="data_path"):
            tiny_config(mixture=None, data_path=b"pool.csv", data_format="csv")

    def test_saving_twice_is_byte_identical(self, tmp_path):
        cfg = tiny_config(n_episodes=4)
        reports = run_experiment(cfg)
        save_reports(cfg, reports, tmp_path / "a")
        save_reports(cfg, reports, tmp_path / "b")
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_sweep_csv_shape(self, tmp_path):
        solo = tiny_config(methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
                           corruption_rates=(0.4,), n_episodes=4)
        reports = run_sweep(solo, "alpha", [0.6, 0.8])
        path = save_sweep("alpha", reports, tmp_path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "value,mean,ci95"
        assert len(lines) == 3
        assert lines[1].startswith("0.6,")

    def test_rectification_csv_has_mean_row(self, tmp_path):
        cfg = tiny_config(
            methods=(MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2)),),
            corruption_rates=(0.4,), n_episodes=4,
        )
        path = save_rectification(run_experiment(cfg)[0], tmp_path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "episode_index,correct_before,correct_after"
        assert len(lines) == 1 + 4 + 1
        assert lines[-1].startswith("mean,")


class TestEpisodeAveragesMatchPublicApi:
    @staticmethod
    def check_against_per_query_calls(cfg):
        from rnnp.episodes import CorruptionSpec, corrupt_labels, sample_episode
        from rnnp.datagen import generate_mixture
        from rnnp.refine import classify_rnnp, rectification_delta

        pool = generate_mixture(cfg.mixture)
        report = run_experiment(cfg)[-1]
        rcfg = cfg.methods[-1].rnnp
        import rnnp.harness as hz

        for i in range(cfg.n_episodes):
            ep = sample_episode(pool, cfg.n_way, cfg.k_shot, cfg.queries_per_class,
                                cfg.seed + i)
            corr = corrupt_labels(
                ep, CorruptionSpec(rate=0.4, seed=(cfg.seed ^ hz.CORRUPTION_SEED_SALT) + i))
            outs = [classify_rnnp(corr, q, rcfg) for q in corr.query_features]
            acc = float(np.mean(np.asarray([pred for _, pred, _ in outs]) == corr.query_labels))
            assert acc == report.per_episode_accuracies[i]
            pairs = [rectification_delta(corr, trace) for _, _, trace in outs]
            assert report.per_episode_rectification[i] == (
                pairs[0][0], float(np.mean([after for _, after in pairs])))

    def test_harness_rnnp_accuracy_matches_per_query_calls(self):
        self.check_against_per_query_calls(tiny_config(corruption_rates=(0.4,)))

    def test_harness_labeled_direct_matches_per_query_calls(self):
        method = MethodSpec(method="rnnp", rnnp=RnnpConfig(
            beta=2, hybrid_labeling="labeled_direct"))
        self.check_against_per_query_calls(tiny_config(corruption_rates=(0.4,),
                                                       methods=(method,)))

    @pytest.mark.parametrize("dim", [24, 12], ids=["span", "full_space"])
    def test_predictions_of_every_method_match_per_query_calls(self, monkeypatch, dim):
        from rnnp.datagen import generate_mixture
        from rnnp.episodes import CorruptionSpec, corrupt_labels, sample_episode
        from rnnp.nnp import classify, compute_prototypes
        from rnnp.refine import classify_rnnp, rectification_delta

        # The default soft same_class method and every method off it.
        methods = OFF_DEFAULT_METHODS + (MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=2),
                                                    label="default"),)
        cfg = tiny_config(mixture=replace(tiny_mixture(), dim=dim), methods=methods)
        # KN + 1 = 16: dim 24 runs the harness on the span episode, dim 12 in
        # R^d; the per-query library calls refine in R^d either way.
        assert (cfg.n_way * cfg.k_shot + 1 < dim) == (dim == 24)
        pool = generate_mixture(cfg.mixture)
        seen = []
        accuracy = harness.episode_accuracy
        monkeypatch.setattr(harness, "episode_accuracy",
                            lambda preds, labels: seen.append(preds) or accuracy(preds, labels))
        for i in range(cfg.n_episodes):
            rows = harness._evaluate_episode(pool, cfg, i)
            ep = sample_episode(pool, cfg.n_way, cfg.k_shot, cfg.queries_per_class, cfg.seed + i)
            for rate, cells in zip(cfg.corruption_rates, rows):
                corr = corrupt_labels(ep, CorruptionSpec(
                    rate=rate, seed=(cfg.seed ^ harness.CORRUPTION_SEED_SALT) + i))
                protos = compute_prototypes(corr, "observed")
                for m, (_, rectification) in zip(cfg.methods, cells):
                    if m.method == "nnp":
                        preds = [classify(protos, q)[1] for q in corr.query_features]
                        nearest = [int(np.argmin(np.sum((protos - q) ** 2, axis=1)))
                                   for q in corr.query_features]
                        assert preds == nearest
                    else:
                        outs = [classify_rnnp(corr, q, m.rnnp) for q in corr.query_features]
                        preds = [pred for _, pred, _ in outs]
                        pairs = [rectification_delta(corr, trace) for _, _, trace in outs]
                        assert rectification == [pairs[0][0],
                                                 float(np.mean([a for _, a in pairs]))]
                    assert seen.pop(0).tolist() == preds, (i, rate, m.label)
        assert seen == []


class TestOneProjectionPerEpisode:
    """The episode is projected to its supports' span once; everything after
    that, but gaussian_noise hybrids, runs in its KN + 1 coordinates."""

    @pytest.mark.parametrize("rates, methods", [
        ((0.4,), OFF_DEFAULT_METHODS[1:2]),
        ((0.0, 0.2, 0.4), OFF_DEFAULT_METHODS),
    ], ids=["one_rate_one_method", "three_rates_six_methods"])
    def test_span_episode_runs_once_per_episode(self, monkeypatch, rates, methods):
        inside, projections, refined_dims, classified_dims = [], [], [], []

        def outside_refinement(fn, record):
            def wrapped(*args, **kwargs):
                assert not inside, f"{fn.__name__} ran inside _refine_queries"
                record.append(1)
                return fn(*args, **kwargs)
            return wrapped

        refine_queries = harness._refine_queries

        def refine_inside(episode, *args):
            refined_dims.append(episode.dim)
            inside.append(1)
            try:
                return refine_queries(episode, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(harness, "_span_episode",
                            outside_refinement(harness._span_episode, projections))
        monkeypatch.setattr(np.linalg, "qr", outside_refinement(np.linalg.qr, []))
        monkeypatch.setattr(harness, "_refine_queries", refine_inside)
        pairwise = harness._pairwise_raw
        monkeypatch.setattr(harness, "_pairwise_raw",
                            lambda r, c: classified_dims.append(r.shape[1]) or pairwise(r, c))
        cfg = tiny_config(mixture=replace(tiny_mixture(), dim=24), corruption_rates=rates,
                          methods=methods, n_episodes=4)
        run_experiment(cfg)
        assert len(projections) == cfg.n_episodes
        # KN + 1 = 16 for all but gaussian_noise, which refines and classifies in R^24.
        want = {16, 24} if any(m.label == "noise" for m in methods) else {16}
        assert set(refined_dims) == set(classified_dims) == want


@st.composite
def small_runs(draw):
    """A run of TestInvariantsThroughTheHarness's methods on a small
    generate_mixture pool at K = 5, rates 0 and 0.4, whose dimension lies on
    either side of KN + 1 (above it, episodes are refined in their supports'
    span); a strictly increasing map of the pool's labels 0..C-1; and a
    power-of-two exponent to scale the pool by."""
    n_way = draw(st.integers(2, 4))
    span = n_way * 5 + 1
    queries = draw(st.integers(1, 3))
    spec = MixtureSpec(num_classes=draw(st.integers(n_way, n_way + 2)),
                       dim=draw(st.one_of(st.integers(2, span), st.integers(span + 1, span + 12))),
                       separation=draw(st.floats(1.0, 8.0)),
                       samples_per_class=5 + queries + draw(st.integers(0, 3)),
                       seed=draw(st.integers(0, 2**31 - 1)))
    cfg = default_config(methods=TestInvariantsThroughTheHarness.METHODS, mixture=spec,
                         n_way=n_way, queries_per_class=queries, n_episodes=3,
                         corruption_rates=(0.0, 0.4), seed=draw(st.integers(0, 2**31 - 1)),
                         workers=1)
    gaps = draw(st.lists(st.integers(1, 2**20), min_size=spec.num_classes,
                         max_size=spec.num_classes))
    relabel = draw(st.integers(-2**40, 2**40)) + np.cumsum(gaps)
    return cfg, relabel, draw(st.integers(-20, 20))


class TestInvariantsThroughTheHarness:
    """The north star's invariants through a whole run: span projection,
    corruption and the R^d gaussian_noise path included. Default pool, 60
    episodes, rates 0, 0.2 and 0.4; the two exact ones also over small
    random pools."""

    METHODS = (MethodSpec(method="nnp"),) + tuple(
        MethodSpec(method="rnnp", rnnp=RnnpConfig(beta=4, **kwargs), label=label)
        for label, kwargs in [("soft_same", {}),
                              ("hard_same", {"clustering_mode": "hard"}),
                              ("soft_different", {"hybrid_source": "different_class"}),
                              ("soft_noise", {"hybrid_source": "gaussian_noise"}),
                              ("direct", {"hybrid_labeling": "labeled_direct"})])
    # Soft assignment has a fixed temperature of 1 in the pool's squared
    # units, so scaling the pool changes soft results (README, Known
    # limitations); these methods take an argmin or a mean and do not.
    SCALE_FREE = {"nnp", "hard_same", "direct"}

    @pytest.fixture(scope="class")
    def base(self):
        """The run on the default pool: its config, the pool and its report dicts."""
        cfg = default_config(n_episodes=60, methods=self.METHODS, workers=1)
        pool = generate_mixture(cfg.mixture)
        reports = harness._run_on_pool(cfg, pool)
        assert [r.corruption_rate for r in reports[:3]] == [0.0, 0.2, 0.4]
        return cfg, pool, [r.to_dict() for r in reports]

    @staticmethod
    def rerun(base, features, labels):
        """The same run's report dicts on another pool."""
        return [r.to_dict() for r in harness._run_on_pool(base[0], EmbeddingSet(features, labels))]

    def test_renaming_the_classes_changes_no_report(self, base):
        _, pool, reports = base
        assert self.rerun(base, pool.features, pool.labels * 1000 - 7) == reports

    @pytest.mark.parametrize("exponent", [2, 4, 6, 8])
    def test_moving_the_pool_changes_no_episode_accuracy(self, base, exponent):
        _, pool, reports = base
        offset = np.random.default_rng(exponent).normal(size=pool.dim) * 10.0 ** exponent
        moved = self.rerun(base, pool.features + offset, pool.labels)
        assert [(r["method"], r["corruption_rate"], r["per_episode_accuracies"]) for r in moved] \
            == [(r["method"], r["corruption_rate"], r["per_episode_accuracies"]) for r in reports]

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scaling_the_pool_changes_no_scale_free_report(self, base, scale):
        _, pool, reports = base
        scaled = self.rerun(base, pool.features * scale, pool.labels)
        kept = [(a, b) for a, b in zip(reports, scaled) if a["method"] in self.SCALE_FREE]
        assert len(kept) == 9
        for a, b in kept:
            assert a == b, (a["method"], a["corruption_rate"])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(run=small_runs())
    def test_small_pools_keep_the_invariants(self, run):
        # Exact on any pool: an increasing relabelling keeps the classes'
        # order, and a power of two rounds nothing in the sums, means, QR
        # and argmins of the scale-free methods.
        cfg, relabel, exponent = run
        pool = generate_mixture(cfg.mixture)
        event(f"N={cfg.n_way} {'span' if pool.dim > cfg.n_way * 5 + 1 else 'R^d'}")
        reports = [r.to_dict() for r in harness._run_on_pool(cfg, pool)]
        base = (cfg, pool, reports)
        assert self.rerun(base, pool.features, relabel[pool.labels]) == reports
        scaled = self.rerun(base, pool.features * 2.0 ** exponent, pool.labels)
        kept = [(a, b) for a, b in zip(reports, scaled) if a["method"] in self.SCALE_FREE]
        assert len(kept) == 6 and all(a == b for a, b in kept)
