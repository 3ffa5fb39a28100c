"""The public API, pinned: an added or dropped name shows up here."""

import rnnp

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
    "refine_for_query",
    "run_experiment",
    "run_sweep",
    "sample_episode",
    "save_rectification",
    "save_reports",
    "save_sweep",
    "write_embeddings",
]


def test_all_is_pinned():
    assert len(PUBLIC_NAMES) == 32
    assert sorted(rnnp.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in rnnp.__all__ if not hasattr(rnnp, name)]
    assert missing == []
