"""Prototype-based few-shot classification that tolerates corrupted support labels.

The baseline classifies queries by distance to observed-label class means.
The robust variant densifies each episode with hybrid points mixed from
support pairs, then re-estimates the prototypes with a few soft k-means
rounds over supports, hybrids, and the single query being classified; the
final support responsibilities double as rectified labels.
"""

from .datagen import MixtureSpec, generate_mixture, load_embeddings, write_embeddings
from .episodes import (
    CorruptionSpec,
    EmbeddingSet,
    Episode,
    corrupt_labels,
    sample_episode,
)
from .errors import (
    DegenerateClassError,
    EmbeddingFormatError,
    InvalidInputError,
)
from .harness import (
    ExperimentConfig,
    MethodSpec,
    default_config,
    load_pool,
    run_experiment,
    run_sweep,
    save_rectification,
    save_reports,
    save_sweep,
)
from .metrics import EvalReport, episode_accuracy, paired_delta
from .nnp import classify, compute_prototypes
from .refine import (
    RefinementTrace,
    RnnpConfig,
    classify_rnnp,
    rectification_delta,
)

__version__ = "0.1.0"

__all__ = [
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
