"""Prototype-based few-shot classification that tolerates corrupted support labels.

The baseline classifies queries by distance to observed-label class means.
The robust variant densifies each episode with hybrid points mixed from
support pairs, then re-estimates the prototypes with a few soft k-means
rounds over supports, hybrids, and the single query being classified; the
final support responsibilities double as rectified labels.
"""

from .datagen import (
    FILE_FORMATS,
    MixtureSpec,
    generate_mixture,
    load_embeddings,
    write_embeddings,
)
from .episodes import (
    CorruptionSpec,
    EmbeddingSet,
    Episode,
    corrupt_labels,
    count_corrupted,
    sample_episode,
)
from .errors import (
    DegenerateClassError,
    DegenerateInputError,
    EmbeddingFormatError,
    InvalidInputError,
)
from .harness import (
    BENCHMARK_SEPARATION,
    ExperimentConfig,
    MethodSpec,
    default_config,
    load_pool,
    run_experiment,
    run_rectification_analysis,
    run_sweep,
    save_rectification,
    save_reports,
    save_sweep,
)
from .metrics import EvalReport, episode_accuracy, mean_ci95, paired_delta, reports_to_csv
from .nnp import ClassProbabilities, PrototypeSet, classify, compute_prototypes
from .refine import (
    CLUSTERING_MODES,
    HYBRID_LABELINGS,
    HYBRID_SOURCES,
    RefinementTrace,
    RnnpConfig,
    build_hybrids,
    classify_rnnp,
    rectification_delta,
    refine_for_query,
)

__version__ = "0.1.0"

__all__ = [
    "BENCHMARK_SEPARATION",
    "CLUSTERING_MODES",
    "ClassProbabilities",
    "CorruptionSpec",
    "DegenerateClassError",
    "DegenerateInputError",
    "EmbeddingFormatError",
    "EmbeddingSet",
    "Episode",
    "EvalReport",
    "ExperimentConfig",
    "FILE_FORMATS",
    "HYBRID_LABELINGS",
    "HYBRID_SOURCES",
    "InvalidInputError",
    "MethodSpec",
    "MixtureSpec",
    "PrototypeSet",
    "RefinementTrace",
    "RnnpConfig",
    "build_hybrids",
    "classify",
    "classify_rnnp",
    "compute_prototypes",
    "corrupt_labels",
    "count_corrupted",
    "default_config",
    "episode_accuracy",
    "generate_mixture",
    "load_embeddings",
    "load_pool",
    "mean_ci95",
    "paired_delta",
    "rectification_delta",
    "refine_for_query",
    "reports_to_csv",
    "run_experiment",
    "run_rectification_analysis",
    "run_sweep",
    "sample_episode",
    "save_rectification",
    "save_reports",
    "save_sweep",
    "write_embeddings",
]
