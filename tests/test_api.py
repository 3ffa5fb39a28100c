"""The public API, pinned: an added or dropped name shows up here."""

import ast
import dataclasses
import json
import pathlib
import re

import rnnp
from rnnp.harness import ExperimentConfig
from rnnp.refine import RnnpConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = [
    "CorruptionSpec",
    "DegenerateClassError",
    "EmbeddingFormatError",
    "EmbeddingSet",
    "Episode",
    "EvalReport",
    "ExperimentConfig",
    "InvalidInputError",
    "MethodSpec",
    "MixtureSpec",
    "RefinementTrace",
    "RnnpConfig",
    "build_hybrids",
    "classify",
    "classify_rnnp",
    "compute_prototypes",
    "corrupt_labels",
    "default_config",
    "episode_accuracy",
    "generate_mixture",
    "load_embeddings",
    "load_pool",
    "paired_delta",
    "rectification_delta",
    "run_experiment",
    "run_sweep",
    "sample_episode",
    "save_rectification",
    "save_reports",
    "save_sweep",
    "write_embeddings",
]


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 31
    assert sorted(rnnp.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in rnnp.__all__ if not hasattr(rnnp, name)]
    assert missing == []


def test_every_public_name_is_documented():
    # A code span is inline `...` text outside the fenced blocks.
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = set(re.findall(r"`([^`\n]+)`", prose))
    assert [name for name in rnnp.__all__ if name not in spans] == []


def test_rnnp_config_table_lists_every_field_with_its_default():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("`RnnpConfig` fields:"):].split("\n\n")[1]
    rows = re.findall(r"^\| `(\w+)` \| (.+?) \|", table, flags=re.M)
    documented = {name: default if default == "required" else ast.literal_eval(default.strip("`"))
                  for name, default in rows}
    assert documented == {f.name: "required" if f.default is dataclasses.MISSING else f.default
                          for f in dataclasses.fields(RnnpConfig)}
    assert len(rows) == len(documented)


def test_config_file_example_loads():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^### Config file$.*?^```json$(.*?)^```$", text, flags=re.S | re.M)
    assert isinstance(ExperimentConfig.from_dict(json.loads(block[1])), ExperimentConfig)
