"""Command-line behavior, run in-process through main()."""

import argparse
import json

import pytest

from rnnp.cli import build_parser, main
from rnnp.datagen import load_embeddings


def write_config(tmp_path, **overrides):
    cfg = {
        "mixture": {"num_classes": 6, "dim": 4, "separation": 6.0,
                    "samples_per_class": 10, "seed": 3},
        "n_way": 3,
        "k_shot": 5,
        "queries_per_class": 4,
        "n_episodes": 4,
        "corruption_rates": [0.0, 0.4],
        "methods": [
            {"method": "nnp"},
            {"method": "rnnp", "beta": 2, "iterations": 2},
        ],
        "seed": 5,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


COMMON_OPTIONS = ["--alpha", "--beta", "--config", "--corruption", "--episodes", "--help",
                  "--hybrid", "--iterations", "--labeling", "--mode", "--out", "--seed",
                  "--workers", "-h"]
OPTIONS = {
    "generate": ["--classes", "--dim", "--help", "--out", "--samples", "--seed", "--separation",
                 "-h"],
    "eval": COMMON_OPTIONS,
    "sweep": sorted(COMMON_OPTIONS + ["--axis", "--values"]),
    "rectify": COMMON_OPTIONS,
}


def test_option_strings_are_pinned():
    # Pinned like rnnp.__all__: a dest or flag edit cannot drop a flag unnoticed.
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: sorted(s for a in sub._actions for s in a.option_strings)
           for name, sub in action.choices.items()}
    assert got == OPTIONS


@pytest.mark.parametrize("args, flag", [
    (["eval", "--corruption", "0,x"], "--corruption"),
    (["sweep", "--corruption", "0.4", "--axis", "beta", "--values", "1,x"], "--values"),
], ids=["eval_corruption", "sweep_values"])
def test_bad_number_list_exits_2(tmp_path, capsys, args, flag):
    cfg = write_config(tmp_path)
    assert main(args + ["--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad {flag} ")


class TestGenerate:
    def test_writes_loadable_pool(self, tmp_path, capsys):
        code = main(["generate", "--classes", "4", "--dim", "3", "--separation", "5",
                     "--samples", "6", "--seed", "2", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 24 embeddings" in out
        pool = load_embeddings(tmp_path / "embeddings.csv")
        assert pool.features.shape == (24, 3)
        assert pool.num_classes == 4

    def test_impossible_sample_count_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--samples", str(10**15), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "samples_per_class=" in err
        assert not (tmp_path / "embeddings.csv").exists()

    def test_jsonl_format(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--format", "jsonl", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestEval:
    def test_runs_config_file_and_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["eval", "--config", cfg, "--out", str(out_dir), "--workers", "1"])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "nnp @ 0%" in stdout
        assert "rnnp @ 40%" in stdout
        payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert len(payload["reports"]) == 4
        assert (out_dir / "report.csv").exists()
        # The run's config is written once, at the top; each report keeps its seed.
        assert payload["config"]["seed"] == 5
        assert json.dumps(payload).count('"methods"') == 1
        for report in payload["reports"]:
            assert report["seed"] == 5 and "config" not in report

    def test_flag_overrides_reach_the_run(self, tmp_path):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        assert main(["eval", "--config", cfg, "--out", str(out_dir), "--workers", "1",
                     "--episodes", "3", "--corruption", "0.4", "--beta", "1",
                     "--iterations", "1", "--mode", "hard", "--seed", "9", "--alpha", "0.6",
                     "--hybrid", "different", "--labeling", "labeled"]) == 0
        payload = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert len(payload["reports"]) == 2
        rnnp_report = payload["reports"][1]
        experiment = payload["config"]
        assert experiment["n_episodes"] == 3
        assert experiment["corruption_rates"] == [0.4]
        assert experiment["seed"] == rnnp_report["seed"] == 9
        rnnp_method = experiment["methods"][1]
        assert rnnp_method["beta"] == 1
        assert rnnp_method["iterations"] == 1
        assert rnnp_method["clustering_mode"] == "hard"
        assert rnnp_method["alpha"] == 0.6
        assert rnnp_method["hybrid_source"] == "different_class"
        assert rnnp_method["hybrid_labeling"] == "labeled_direct"

    def test_eval_from_data_file(self, tmp_path):
        assert main(["generate", "--classes", "6", "--dim", "4", "--separation", "6",
                     "--samples", "10", "--seed", "3", "--out", str(tmp_path)]) == 0
        cfg = write_config(
            tmp_path,
            mixture=None,
            data_path=str(tmp_path / "embeddings.csv"),
            data_format="csv",
        )
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--workers", "1"]) == 0

    # The jsonl_* files are in the removed JSONL format: the CSV reader refuses them at line 1.
    @pytest.mark.parametrize("body, line", [
        (b"label,f0\n1,0.5\n99999999999999999999,0.25\n", 3),
        (b"label,f0\n1,0.5\n2,0.\xff5\n", 3),
        (b'{"label": 1, "features": [0.5]}\n{"label": 1e400, "features": [0.5]}\n', 1),
        (b'{"label": -99999999999999999999, "features": [0.5]}\n', 1),
        (b'{"label": 1, "features": [0.5]}\n{"label": 1, "features": [1'
         + b"0" * 400 + b']}\n', 1),
        (b'{"label": 1, "features": [' + b"1" * 5000 + b']}\n', 1),
        (b'{"label": 1, "features": [0.5]}\n' + b"[" * 200000 + b"]" * 200000 + b"\n", 1),
    ], ids=["csv_label_overflow", "csv_not_utf8", "jsonl_float_label", "jsonl_label_overflow",
            "jsonl_feature_beyond_float", "jsonl_feature_beyond_digit_limit", "jsonl_deep_nesting"])
    def test_hostile_data_file_exits_2(self, tmp_path, capsys, body, line):
        path = tmp_path / "embeddings.csv"
        path.write_bytes(body)
        cfg = write_config(tmp_path, mixture=None, data_path=str(path), data_format="csv")
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--workers", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {line}: ")

    def test_pool_beyond_the_feature_limit_exits_2(self, tmp_path, capsys):
        # Squared distances of features near 1e160 overflow, so the pool is
        # refused before any episode runs.
        assert main(["generate", "--classes", "6", "--dim", "4", "--separation", "6",
                     "--samples", "10", "--seed", "3", "--out", str(tmp_path)]) == 0
        path = tmp_path / "embeddings.csv"
        rows = path.read_text(encoding="utf-8").splitlines()
        scaled = [rows[0]] + [",".join([r.split(",")[0]] + [repr(float(v) * 1e160)
                                                             for v in r.split(",")[1:]])
                              for r in rows[1:]]
        path.write_text("\n".join(scaled) + "\n", encoding="utf-8")
        cfg = write_config(tmp_path, mixture=None, data_path=str(path), data_format="csv")
        capsys.readouterr()
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--workers", "1"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: line 2: a feature value is NaN or Inf, or beyond 1e+150")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("edit, named", [
        (lambda cfg: {**cfg, "methods": [
            {"method": "rnnp", "beta": 10**15, "hybrid_source": "different_class"}]}, "beta="),
        (lambda cfg: {**cfg, "methods": [
            {"method": "rnnp", "beta": 10**15, "hybrid_source": "gaussian_noise"}]}, "beta="),
        (lambda cfg: {**cfg, "mixture": {**cfg["mixture"], "samples_per_class": 10**15}},
         "samples_per_class="),
        (lambda cfg: {**cfg, "mixture": {**cfg["mixture"], "dim": 1, "samples_per_class": 10**15}},
         "out of memory"),
    ], ids=["beta_different_class", "beta_gaussian_noise", "samples_per_class",
            "samples_per_class_allocation"])
    def test_impossible_size_exits_2(self, tmp_path, capsys, edit, named):
        # 10**15 rows fail before any memory is touched: beyond numpy's largest
        # array, or, for the one-dimensional pool, beyond what malloc can map.
        path = tmp_path / "config.json"
        write_config(tmp_path, n_way=5, mixture={"num_classes": 20, "dim": 64,
                                                  "separation": 6.0, "samples_per_class": 10,
                                                  "seed": 3})
        cfg = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(edit(cfg)), encoding="utf-8")
        assert main(["eval", "--config", str(path), "--out", str(tmp_path / "run"),
                     "--workers", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, k_shot=0)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["eval", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda cfg: [cfg],
        lambda cfg: {**cfg, "corruption_rates": 0.4},
        lambda cfg: {**cfg, "methods": {"method": "nnp"}},
        lambda cfg: {k: v for k, v in cfg.items() if k != "methods"},
        lambda cfg: {**cfg, "methods": [{"method": "nnp", "label": 5}]},
        lambda cfg: {**cfg, "best_of": 2},
        lambda cfg: {**cfg, "output_dir": "runs/a"},
        lambda cfg: {**cfg, "methods": [{"method": "rnnp", "beta": 2, "metric": "cosine"}]},
        lambda cfg: {**cfg, "mixture": {**cfg["mixture"], "separation": 10**400}},
        lambda cfg: {**cfg, "corruption_rates": [10**400]},
        lambda cfg: {**cfg, "corruption_rates": [0.4, 0.4]},
        lambda cfg: b"[" * 200000 + b"]" * 200000,
        lambda cfg: b'{"seed": "\xff"}',
        lambda cfg: {**cfg, "data_format": "jsonl"},
    ], ids=["top_level_list", "scalar_rates", "methods_object", "no_methods", "numeric_label",
            "best_of", "output_dir", "rnnp_metric", "separation_beyond_float",
            "rate_beyond_float", "duplicate_rates", "deep_nesting", "not_utf8", "jsonl_data_format"])
    def test_mistyped_config_exits_2(self, tmp_path, capsys, edit):
        # An edit gives the new config as an object, or as the file's raw bytes.
        path = tmp_path / "config.json"
        write_config(tmp_path)
        body = edit(json.loads(path.read_text(encoding="utf-8")))
        path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode("utf-8"))
        assert main(["eval", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_best_of_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--best-of", "2", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--best-of" in capsys.readouterr().err


class TestSweep:
    def test_alpha_sweep_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["sweep", "--config", cfg, "--out", str(out_dir), "--workers", "1",
                     "--corruption", "0.4", "--axis", "alpha",
                     "--values", "0.6,0.8", "--episodes", "3"])
        assert code == 0
        lines = (out_dir / "sweep_alpha.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "value,mean,ci95"
        assert len(lines) == 3
        assert "alpha=0.6" in capsys.readouterr().out

    def test_parallel_sweep_writes_the_serial_bytes(self, tmp_path):
        cfg = write_config(tmp_path, n_episodes=8)
        tables = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"workers{workers}"
            assert main(["sweep", "--config", cfg, "--out", str(out_dir), "--workers", workers,
                         "--corruption", "0.4", "--axis", "beta", "--values", "1,2,3"]) == 0
            tables.append((out_dir / "sweep_beta.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_sweep_requires_single_rate(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--axis", "alpha",
                     "--values", "0.6"]) == 2
        assert "corruption" in capsys.readouterr().err


class TestRectify:
    def test_writes_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_dir = tmp_path / "run"
        code = main(["rectify", "--config", cfg, "--out", str(out_dir), "--workers", "1",
                     "--corruption", "0.4", "--episodes", "3"])
        assert code == 0
        assert "mean correct labels" in capsys.readouterr().out
        lines = (out_dir / "rectification.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "episode_index,correct_before,correct_after"
        assert len(lines) == 1 + 3 + 1


class TestDeterminism:
    def test_rerun_reproduces_bytes(self, tmp_path):
        cfg = write_config(tmp_path, n_episodes=3)
        args = ["eval", "--config", cfg, "--workers", "1", "--corruption", "0.4"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()
