"""Command-line behavior, run in-process through main()."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from rnnp.cli import build_parser, main
from rnnp.datagen import generate_mixture, load_embeddings, write_embeddings
from rnnp.harness import SWEEP_AXES, default_config
from rnnp.refine import CLUSTERING_MODES


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


def test_choices_come_from_the_library():
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = {(name, a.dest): a.choices for name, sub in action.choices.items()
               for a in sub._actions if a.dest in ("axis", "clustering_mode")}
    for name in ("eval", "sweep", "rectify"):
        assert choices[(name, "clustering_mode")] is CLUSTERING_MODES
    assert choices[("sweep", "axis")] is SWEEP_AXES


@pytest.mark.parametrize("args, flag", [
    (["eval", "--corruption", "0,x"], "--corruption"),
    (["sweep", "--corruption", "0.4", "--axis", "beta", "--values", "1,x"], "--values"),
], ids=["eval_corruption", "sweep_values"])
def test_bad_number_list_exits_2(tmp_path, capsys, args, flag):
    cfg = write_config(tmp_path)
    assert main(args + ["--config", cfg, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith(f"error: bad {flag} ")


NUL_REFUSED = "a path cannot hold a NUL byte"
# The arguments each command needs besides --out.
REQUIRED = {"eval": [], "sweep": ["--axis", "beta", "--values", "1"], "rectify": [],
            "generate": []}


@pytest.mark.parametrize("args, flag, message", [
    (["eval", "--out", "\x00"], "--out", NUL_REFUSED),
    (["generate", "--out", "\x00"], "--out", NUL_REFUSED),
    (["eval", "--config", "a\x00b.json"], "--config", NUL_REFUSED),
    *[([cmd, *REQUIRED[cmd], "--out", ""], "--out", "an output directory needs a name")
      for cmd in REQUIRED],
    *[([cmd, *REQUIRED[cmd], "--out", "{file}"], "--out", "'{file}' exists and is not a directory")
      for cmd in REQUIRED],
    *[([cmd, *REQUIRED[cmd], "--out", "{file}/sub/"], "--out",
       "'{file}' exists and is not a directory") for cmd in REQUIRED],
], ids=["eval_out", "generate_out", "eval_config", *(f"{cmd}_empty_out" for cmd in REQUIRED),
        *(f"{cmd}_file_out" for cmd in REQUIRED), *(f"{cmd}_out_under_a_file" for cmd in REQUIRED)])
def test_nul_byte_in_a_path_flag_exits_2_before_any_run(tmp_path, capsys, args, flag, message):
    # Every refusal comes from argparse, so no episode runs and nothing is written.
    file = tmp_path / "taken"
    file.write_text("kept\n", encoding="utf-8")
    args = [a.replace("{file}", str(file)) for a in args]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"rnnp {args[0]}: error: argument {flag}: "
                      + message.replace("{file}", str(file))]
    assert file.read_text(encoding="utf-8") == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


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

    def test_separation_beyond_the_feature_limit_exits_2(self, tmp_path, capsys):
        args = ["generate", "--classes", "6", "--dim", "4", "--samples", "10", "--seed", "3"]
        assert main(args + ["--separation", "1e200", "--out", str(tmp_path / "far")]) == 2
        assert capsys.readouterr().err == \
            "error: separation 1e+200 puts the class means beyond 1e+150 in magnitude\n"
        assert not (tmp_path / "far").exists()
        assert main(args + ["--separation", "1e149", "--out", str(tmp_path)]) == 0
        assert load_embeddings(tmp_path / "embeddings.csv").features.shape == (60, 4)

    def test_impossible_sample_count_exits_2(self, tmp_path, capsys):
        assert main(["generate", "--samples", str(10**15), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "samples_per_class=" in err
        assert not (tmp_path / "embeddings.csv").exists()

    def test_defaults_write_the_benchmark_pool(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "d")]) == 0
        write_embeddings(generate_mixture(default_config().mixture), tmp_path / "want.csv")
        assert (tmp_path / "d" / "embeddings.csv").read_bytes() == \
            (tmp_path / "want.csv").read_bytes()

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

    def test_nul_byte_in_data_path_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mixture=None, data_path="a\x00b.csv", data_format="csv")
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == \
            "error: data_path 'a\\x00b.csv' holds a NUL byte, which no file name can\n"
        assert not (tmp_path / "run").exists()

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

    def test_config_separation_beyond_the_feature_limit_exits_2(self, tmp_path, capsys):
        mixture = {"num_classes": 6, "dim": 4, "separation": 1e200, "samples_per_class": 10,
                   "seed": 3}
        cfg = write_config(tmp_path, mixture=mixture)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err.startswith("error: separation 1e+200 ")
        assert not (tmp_path / "run").exists()

    def test_negative_zero_rate_writes_the_bytes_of_zero(self, tmp_path):
        cfg = write_config(tmp_path)
        for rates in ("0.4,0.0", "0.4,-0.0"):
            assert main(["eval", "--config", cfg, "--workers", "1", "--corruption", rates,
                         "--out", str(tmp_path / rates)]) == 0
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "0.4,0.0" / name).read_bytes() == \
                (tmp_path / "0.4,-0.0" / name).read_bytes()

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
        lambda cfg: {**cfg, "n_episodes": 1},
        lambda cfg: {**cfg, "methods": [{"method": "nnp", "label": "a,b"}]},
        lambda cfg: {**cfg, "methods": [{"method": "nnp", "label": "a\nb"}]},
    ], ids=["top_level_list", "scalar_rates", "methods_object", "no_methods", "numeric_label",
            "best_of", "output_dir", "rnnp_metric", "separation_beyond_float",
            "rate_beyond_float", "duplicate_rates", "deep_nesting", "not_utf8", "jsonl_data_format",
            "one_episode", "comma_label", "newline_label"])
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

    def test_requires_single_rate(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["rectify", "--config", cfg, "--out", str(tmp_path / "run"),
                     "--corruption", "0.2,0.4"]) == 2
        assert capsys.readouterr().err == \
            "error: rectification analysis needs exactly one corruption rate\n"
        assert not (tmp_path / "run").exists()


class TestDeterminism:
    def test_rerun_reproduces_bytes(self, tmp_path):
        cfg = write_config(tmp_path, n_episodes=3)
        args = ["eval", "--config", cfg, "--workers", "1", "--corruption", "0.4"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("report.json", "report.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


# Values a caller might pass to any flag; \u0663 is an Arabic-Indic 3, which
# int() and float() read, and \u00b2 a superscript 2, which they do not.
HOSTILE = ("nan", "inf", "-0.0", "1e200", "1e-320", "1" * 25, "", "1_000", "0x10", "\u0663",
           "\u00b2", "\x00")
# Counts that would make a run endless or slow are left out where they are valid.
SMALL = tuple(t for t in HOSTILE if t not in ("1" * 25, "1_000"))
# Per flag: pairs of spellings of one value, then the hostile tokens it gets.
INTS = [("1_000", "1000"), ("\u0663", "3"), ("7", "007")]
COUNTS = [("\u0663", "3"), ("2", "02"), ("1", "+1")]
FLOATS = [("0.8", "0.80"), ("0.5", "5e-1"), ("-0.0", "0.0")]
EVAL_FLAGS = {
    "--config": ([("config.json", "./config.json")], HOSTILE),
    "--seed": (INTS, HOSTILE),
    "--episodes": ([("\u0663", "3"), ("2", "02"), ("3", "+3")], SMALL),
    "--corruption": ([("0.4,-0.0", "0.4,0.0"), ("0.2", "0.20"), ("0.4", "\u0660.\u0664")],
                     HOSTILE),
    "--alpha": (FLOATS, HOSTILE),
    "--beta": (COUNTS, SMALL),
    "--iterations": (COUNTS + [("0", "-0")], SMALL),
    "--mode": ([("soft", "soft"), ("hard", "hard")], HOSTILE),
    "--hybrid": ([(w, w) for w in ("same", "different", "noise")], HOSTILE),
    "--labeling": ([(w, w) for w in ("labeled", "unlabeled")], HOSTILE),
    "--out": ([("run", "./run/")], HOSTILE),
    "--workers": ([("1", "01"), ("2", "+2")], HOSTILE),
}
GENERATE_FLAGS = {
    "--classes": (COUNTS, SMALL),
    "--dim": (COUNTS, SMALL),
    "--separation": ([("6", "6.0"), ("-0.0", "0.0"), ("1_000", "1000")], HOSTILE),
    "--samples": (COUNTS, SMALL),
    "--seed": (INTS, HOSTILE),
    "--out": ([("run", "./run/")], HOSTILE),
}


@st.composite
def argv_pairs(draw):
    """Two argvs for one rnnp eval or generate call, spelling each value
    differently where a pair says how; a flag gets a hostile token one time
    in five. Every eval names --episodes, so no run takes the default 1000."""
    command = draw(st.sampled_from(["eval", "generate"]))
    flags = EVAL_FLAGS if command == "eval" else GENERATE_FLAGS
    first, second = [command], [command]
    for flag, (pairs, hostile) in flags.items():
        if flag != "--episodes" and draw(st.booleans()):
            continue
        if draw(st.integers(0, 4)):
            a, b = draw(st.sampled_from(pairs))
        else:
            a = b = draw(st.sampled_from(hostile))
        first += [flag, a]
        second += [flag, b]
    return first, second


@contextlib.contextmanager
def working_directory(path):
    """Run the block with path as the working directory (contextlib.chdir
    needs Python 3.11)."""
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_in(directory, argv):
    """main(argv) run from directory, which holds write_config's config.json:
    its exit status and its stderr."""
    write_config(directory)
    err = io.StringIO()
    with working_directory(directory), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def written_files(directory):
    """Every file under directory, by relative path, with its bytes."""
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in directory.rglob("*") if p.is_file()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argvs=argv_pairs())
def test_any_argv_exits_cleanly_and_spelling_never_changes_the_bytes(argvs):
    # Exit 0, or exit 2 with one error line; an uncaught exception fails the
    # test with its traceback. Two spellings of one value write the same files.
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, argv in enumerate(argvs):
            directory = pathlib.Path(tmp) / str(i)
            directory.mkdir()
            code, err = run_in(directory, argv)
            assert code in (0, 2), (argv, code, err)
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == (code == 2) and "Traceback" not in err, (argv, err)
            results.append((code, written_files(directory)))
    event(f"{argvs[0][0]} exits {results[0][0]}")
    assert results[0][0] == results[1][0], argvs
    assert results[0][1] == results[1][1], argvs
